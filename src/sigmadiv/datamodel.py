"""Canonical in-memory representations of abundance data and taxonomic trees."""

from __future__ import annotations

import csv
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, ParseError, count

__all__ = [
    "PartitionData",
    "TaxonNode",
    "TaxonomicDataset",
    "ObservationStream",
    "ingest_abundance_csv",
    "write_abundance_csv",
    "ingest_taxonomy_csv",
    "write_taxonomy_csv",
    "accumulate",
    "stream_to_partition",
    "stream_to_taxonomy",
]

# An observation stream is any ordered sequence of taxon labels, or of
# label tuples for taxonomic data.
ObservationStream = Sequence[Hashable]


def _positive_integers(counts: Iterable) -> List[int]:
    """counts as ints, if each is a positive integer: the rule of every abundance."""
    try:
        return [count("an abundance", c) for c in counts]
    except DomainError as exc:
        raise DomainError(f"abundances must be positive integers: {exc}") from None


class PartitionData:
    """Abundance multiset with derived sufficient statistics.

    abundances are stored sorted in descending order; the order carries no
    meaning (exchangeability), sorting just makes serialization deterministic.
    Two partitions are equal when all four fields are.
    """

    __slots__ = ("abundances", "n", "k", "freq_counts")

    def __init__(self, abundances: Tuple[int, ...], n: int, k: int,
                 freq_counts: Dict[int, int]):
        self.abundances = abundances
        self.n = n
        self.k = k
        self.freq_counts = freq_counts

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.abundances, self.n, self.k, self.freq_counts)
                == (other.abundances, other.n, other.k, other.freq_counts))

    @classmethod
    def from_abundances(cls, counts: Iterable[int]) -> "PartitionData":
        abundances = tuple(sorted(_positive_integers(counts), reverse=True))
        if not abundances:
            raise DomainError("at least one taxon is required")
        freq = dict(sorted(Counter(abundances).items()))
        return cls(abundances=abundances, n=sum(abundances), k=len(abundances),
                   freq_counts=freq)

    @classmethod
    def from_freq_counts(cls, freq_counts: Dict[int, int]) -> "PartitionData":
        counts: List[int] = []
        for r, m_r in zip(_positive_integers(freq_counts), freq_counts.values()):
            counts.extend([r] * count("a frequency count", m_r, 0))
        return cls.from_abundances(counts)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k,
                "freq_counts": {str(r): m for r, m in self.freq_counts.items()}}


class TaxonNode:
    """A node of the taxonomy tree: a taxon with its sample count and children."""

    __slots__ = ("label", "count", "children")

    def __init__(self, label: str, count: int = 0,
                 children: Optional[Dict[str, "TaxonNode"]] = None):
        self.label = label
        self.count = count
        self.children = {} if children is None else children

    def to_json(self) -> dict:
        out = {"label": self.label, "count": self.count}
        if self.children:
            out["children"] = [c.to_json() for c in self.children.values()]
        return out


class TaxonomicDataset:
    """Rooted L-level tree of taxon labels with per-node counts."""

    __slots__ = ("levels", "top")

    def __init__(self, levels: int, top: Dict[str, TaxonNode]):
        self.levels = count("levels", levels)
        self.top = top

    @property
    def n(self) -> int:
        return sum(node.count for node in self.top.values())

    def k_per_level(self) -> List[int]:
        ks = []
        nodes = list(self.top.values())
        for _ in range(self.levels):
            ks.append(len(nodes))
            nodes = [c for node in nodes for c in node.children.values()]
        return ks

    def parents_at_level(self, level: int) -> List[TaxonNode]:
        """Nodes at depth level-1 (1-based), i.e. the parents of level `level`."""
        level = count("level", level, 2)
        if level > self.levels:
            raise DomainError(f"level must be in [2, {self.levels}]")
        nodes = list(self.top.values())
        for _ in range(level - 2):
            nodes = [c for node in nodes for c in node.children.values()]
        return nodes

    def validate(self) -> None:
        seen: Dict[Tuple[int, str], str] = {}

        def walk(node: TaxonNode, depth: int, parent: str) -> None:
            key = (depth, node.label)
            if key in seen and seen[key] != parent:
                raise DomainError(
                    f"label {node.label!r} appears under two parents "
                    f"({seen[key]!r} and {parent!r}) at level {depth}")
            seen[key] = parent
            if node.children:
                total = sum(c.count for c in node.children.values())
                if total != node.count:
                    raise DomainError(
                        f"node {node.label!r} count {node.count} != children sum {total}")
                for c in node.children.values():
                    walk(c, depth + 1, node.label)
            elif depth != self.levels:
                raise DomainError(f"leaf {node.label!r} at depth {depth} != {self.levels}")
            elif node.count < 1:
                raise DomainError(f"leaf {node.label!r} has count {node.count} < 1")

        for node in self.top.values():
            walk(node, 1, "")

    def to_json(self) -> dict:
        return {"levels": self.levels, "n": self.n,
                "tree": [node.to_json() for node in self.top.values()]}


def _csv_after_config(fh) -> Tuple[Iterable[List[str]], int]:
    """A csv reader over fh past one leading `# config:` line (the comment the CLI writes
    atop its CSV outputs, so they can be read back), and the line number of its header."""
    if fh.readline().startswith("# config:"):
        return csv.reader(fh), 2
    fh.seek(0)
    return csv.reader(fh), 1


def ingest_abundance_csv(path: str) -> PartitionData:
    """Read a `taxon,count` CSV, after an optional `# config:` line, into a PartitionData."""
    counts: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader, first = _csv_after_config(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if [h.strip().lower() for h in header] != ["taxon", "count"]:
            raise ParseError(f"{path}: line {first}: expected header 'taxon,count'")
        for lineno, row in enumerate(reader, start=first + 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            taxon = row[0].strip()
            try:
                size = int(row[1])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: count {row[1]!r} is not an integer")
            if size < 1:
                raise ParseError(f"{path}: line {lineno}: count must be positive")
            if taxon in counts:
                raise ParseError(f"{path}: line {lineno}: duplicate taxon {taxon!r}")
            counts[taxon] = size
    if not counts:
        raise ParseError(f"{path}: no data rows")
    return PartitionData.from_abundances(counts.values())


def write_abundance_csv(data: PartitionData, path: str) -> None:
    """Serialize abundances with synthetic taxon ids, largest first."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["taxon", "count"])
        width = len(str(data.k))
        for i, c in enumerate(data.abundances, start=1):
            writer.writerow([f"t{i:0{width}d}", c])


def ingest_taxonomy_csv(path: str, levels: int) -> TaxonomicDataset:
    """Read a `level1,...,levelL,count` CSV, after an optional `# config:` line, into a
    TaxonomicDataset."""
    levels = count("levels", levels, 2)
    expected = [f"level{i}" for i in range(1, levels + 1)] + ["count"]
    dataset = TaxonomicDataset(levels=levels, top={})
    parent_of: Dict[Tuple[int, str], str] = {}
    seen_paths = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader, first = _csv_after_config(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if [h.strip().lower() for h in header] != expected:
            raise ParseError(f"{path}: line {first}: expected header {','.join(expected)!r}")
        for lineno, row in enumerate(reader, start=first + 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != levels + 1:
                raise ParseError(f"{path}: line {lineno}: expected {levels + 1} fields")
            labels = [c.strip() for c in row[:levels]]
            if any(not lab for lab in labels):
                raise ParseError(f"{path}: line {lineno}: empty taxon label")
            try:
                size = int(row[levels])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: count {row[levels]!r} is not an integer")
            if size < 1:
                raise ParseError(f"{path}: line {lineno}: count must be positive")
            path_key = tuple(labels)
            if path_key in seen_paths:
                raise ParseError(f"{path}: line {lineno}: duplicate row for {'/'.join(labels)}")
            seen_paths.add(path_key)
            parent = ""
            for depth, label in enumerate(labels, start=1):
                key = (depth, label)
                if key in parent_of and parent_of[key] != parent:
                    raise DomainError(
                        f"{path}: line {lineno}: label {label!r} at level {depth} is "
                        f"nested under both {parent_of[key]!r} and {parent!r}")
                parent_of[key] = parent
                parent = label
            node_map = dataset.top
            node = None
            for label in labels:
                node = node_map.setdefault(label, TaxonNode(label=label))
                node.count += size
                node_map = node.children
    if not dataset.top:
        raise ParseError(f"{path}: no data rows")
    dataset.validate()
    return dataset


def write_taxonomy_csv(dataset: TaxonomicDataset, path: str) -> None:
    rows: List[Tuple] = []

    def walk(node: TaxonNode, prefix: Tuple[str, ...]) -> None:
        prefix = prefix + (node.label,)
        if node.children:
            for c in sorted(node.children.values(), key=lambda x: x.label):
                walk(c, prefix)
        else:
            rows.append(prefix + (node.count,))

    for node in sorted(dataset.top.values(), key=lambda x: x.label):
        walk(node, ())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"level{i}" for i in range(1, dataset.levels + 1)] + ["count"])
        writer.writerows(rows)


def accumulate(stream: ObservationStream) -> List[Tuple[int, int]]:
    """Running distinct-count trajectory [(i, K_i)] of an observation stream."""
    if len(stream) == 0:
        raise DomainError("stream must be nonempty")
    seen = set()
    out = []
    for i, label in enumerate(stream, start=1):
        seen.add(label)
        out.append((i, len(seen)))
    return out


def stream_to_partition(stream: ObservationStream) -> PartitionData:
    return PartitionData.from_abundances(Counter(stream).values())


def stream_to_taxonomy(stream: Sequence[Tuple[str, ...]], levels: int) -> TaxonomicDataset:
    """Reduce a stream of label tuples to an aggregated taxonomy tree."""
    dataset = TaxonomicDataset(levels=levels, top={})
    for labels in stream:
        if len(labels) != dataset.levels:
            raise DomainError(f"tuple {labels!r} does not have {dataset.levels} levels")
        node_map = dataset.top
        for label in labels:
            node = node_map.setdefault(label, TaxonNode(label=str(label)))
            node.count += 1
            node_map = node.children
    dataset.validate()
    return dataset
