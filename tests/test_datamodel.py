import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmadiv import datamodel, estimators
from sigmadiv.errors import DomainError, ParseError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestAbundanceIngestion:
    def test_basic_counts(self, tmp_path):
        path = write(tmp_path, "a.csv", "taxon,count\na,3\nb,1\nc,1\n")
        data = datamodel.ingest_abundance_csv(path)
        assert (data.n, data.k) == (5, 3)
        assert data.freq_counts == {1: 2, 3: 1}

    def test_single_row(self, tmp_path):
        data = datamodel.ingest_abundance_csv(write(tmp_path, "a.csv", "taxon,count\nx,1\n"))
        assert (data.n, data.k) == (1, 1)

    def test_amazon_fixture(self, amazon_abundance_csv, amazon_stats):
        data = datamodel.ingest_abundance_csv(amazon_abundance_csv)
        assert (data.n, data.k) == amazon_stats

    def test_duplicate_taxon(self, tmp_path):
        path = write(tmp_path, "a.csv", "taxon,count\na,3\na,1\n")
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            datamodel.ingest_abundance_csv(path)

    def test_bad_count_reports_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "taxon,count\na,3\nb,x\n")
        with pytest.raises(ParseError, match="line 3"):
            datamodel.ingest_abundance_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            datamodel.ingest_abundance_csv(write(tmp_path, "a.csv", ""))
        with pytest.raises(ParseError, match="no data"):
            datamodel.ingest_abundance_csv(write(tmp_path, "b.csv", "taxon,count\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            datamodel.ingest_abundance_csv(write(tmp_path, "a.csv", "sp,n\na,1\n"))

    def test_skips_a_leading_config_line(self, tmp_path):
        body = "taxon,count\na,3\nb,1\nc,1\n"
        config = '# config: {"command": "simulate", "n": 5, "seed": 1}\n'
        plain = datamodel.ingest_abundance_csv(write(tmp_path, "a.csv", body))
        assert datamodel.ingest_abundance_csv(write(tmp_path, "b.csv", config + body)) == plain
        with pytest.raises(ParseError, match="line 6"):  # line numbers count the config line
            datamodel.ingest_abundance_csv(write(tmp_path, "c.csv", config + body + "d,x\n"))
        with pytest.raises(ParseError, match="line 2"):  # one config line only
            datamodel.ingest_abundance_csv(write(tmp_path, "d.csv", config + config + body))

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_idempotent(self, counts):
        import tempfile

        data = datamodel.PartitionData.from_abundances(counts)
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/x.csv"
            datamodel.write_abundance_csv(data, path)
            again = datamodel.ingest_abundance_csv(path)
        assert again == data

    def test_invariants(self):
        data = datamodel.PartitionData.from_abundances([5, 2, 2, 1])
        assert sum(data.abundances) == data.n
        assert sum(data.freq_counts.values()) == data.k
        assert sum(r * m for r, m in data.freq_counts.items()) == data.n
        assert data.abundances == (5, 2, 2, 1)

    def test_from_freq_counts(self):
        data = datamodel.PartitionData.from_freq_counts({1: 2, 3: 1})
        assert (data.n, data.k) == (5, 3)

    @pytest.mark.parametrize("counts", [[2.5, 3], [math.nan, 2], [math.inf], [0, 1], [-1]])
    def test_abundances_must_be_positive_integers(self, counts):
        # [2.5, 3] was truncated to (3, 2), and [nan, 2] raised ValueError
        with pytest.raises(DomainError, match="positive integers"):
            datamodel.PartitionData.from_abundances(counts)

    @pytest.mark.parametrize("freq", [{2.5: 1, 1: 2}, {math.nan: 1}, {0: 1}, {2: 1.5},
                                      {2: -1}, {2: math.inf}])
    def test_freq_counts_must_be_whole(self, freq):
        # {2.5: 1, 1: 2} was truncated to (2, 1, 1)
        with pytest.raises(DomainError):
            datamodel.PartitionData.from_freq_counts(freq)

    def test_json_shape(self):
        d = datamodel.PartitionData.from_abundances([2, 1]).to_json()
        assert d == {"n": 3, "k": 2, "freq_counts": {"1": 1, "2": 1}}


FIG2_TOY = (
    "level1,level2,level3,count\n"
    "fA,g1,s1,3\n"
    "fA,g1,s2,2\n"
    "fA,g2,s3,5\n"
    "fB,g3,s4,4\n"
    "fB,g3,s5,1\n"
    "fB,g4,s6,2\n"
    "fB,g5,s7,2\n"
    "fB,g5,s8,1\n"
)


class TestTaxonomyIngestion:
    def test_two_rows(self, tmp_path):
        path = write(tmp_path, "t.csv", "level1,level2,level3,count\nF1,G1,S1,2\nF1,G2,S2,1\n")
        tree = datamodel.ingest_taxonomy_csv(path, 3)
        f1 = tree.top["F1"]
        assert f1.count == 3
        assert len(f1.children) == 2

    def test_toy_tree_level_counts(self, tmp_path):
        tree = datamodel.ingest_taxonomy_csv(write(tmp_path, "t.csv", FIG2_TOY), 3)
        assert tree.n == 20
        assert tree.k_per_level() == [2, 5, 8]

    def test_label_reuse_across_parents(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "level1,level2,level3,count\nF1,G1,S1,2\nF1,G2,S1,1\n")
        with pytest.raises(DomainError, match="S1"):
            datamodel.ingest_taxonomy_csv(path, 3)

    def test_duplicate_path(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "level1,level2,level3,count\nF1,G1,S1,2\nF1,G1,S1,1\n")
        with pytest.raises(ParseError, match="duplicate"):
            datamodel.ingest_taxonomy_csv(path, 3)

    def test_count_consistency_everywhere(self, tmp_path):
        tree = datamodel.ingest_taxonomy_csv(write(tmp_path, "t.csv", FIG2_TOY), 3)
        for fam in tree.top.values():
            assert fam.count == sum(g.count for g in fam.children.values())
            for g in fam.children.values():
                assert g.count == sum(s.count for s in g.children.values())

    def test_parents_at_level(self, tmp_path):
        tree = datamodel.ingest_taxonomy_csv(write(tmp_path, "t.csv", FIG2_TOY), 3)
        assert sorted(p.label for p in tree.parents_at_level(2)) == ["fA", "fB"]
        assert len(tree.parents_at_level(3)) == 5

    def test_skips_a_leading_config_line(self, tmp_path):
        config = '# config: {"command": "simulate", "levels_spec": "dp:4;dp:2;ap:0.8"}\n'
        plain = datamodel.ingest_taxonomy_csv(write(tmp_path, "t.csv", FIG2_TOY), 3)
        tree = datamodel.ingest_taxonomy_csv(write(tmp_path, "c.csv", config + FIG2_TOY), 3)
        assert tree.to_json() == plain.to_json()

    def test_roundtrip(self, tmp_path):
        tree = datamodel.ingest_taxonomy_csv(write(tmp_path, "t.csv", FIG2_TOY), 3)
        out = tmp_path / "again.csv"
        datamodel.write_taxonomy_csv(tree, str(out))
        tree2 = datamodel.ingest_taxonomy_csv(str(out), 3)
        assert tree2.k_per_level() == tree.k_per_level()
        assert tree2.n == tree.n


class TestAccumulate:
    def test_basic(self):
        assert datamodel.accumulate(["a", "a", "b"]) == [(1, 1), (2, 1), (3, 2)]

    def test_constant_stream(self):
        assert [k for _, k in datamodel.accumulate(["x"] * 5)] == [1] * 5

    def test_empty_stream(self):
        with pytest.raises(DomainError):
            datamodel.accumulate([])

    def test_permutation_average_matches_classical_rarefaction(self):
        # average K_2 over all distinct orderings of {a,a,a,b,c}
        stream = "aaabc"
        totals = Fraction(0)
        seen = set()
        for perm in permutations(stream):
            if perm in seen:
                continue
            seen.add(perm)
            totals += datamodel.accumulate(perm)[1][1]
        avg = totals / len(seen)
        data = datamodel.PartitionData.from_abundances([3, 1, 1])
        classical = estimators.classical_rarefaction(data, sizes=[2])[0]
        assert classical == pytest.approx(float(avg), rel=1e-12)

    def test_stream_reduction(self):
        data = datamodel.stream_to_partition(["a", "b", "a", "c", "a"])
        assert (data.n, data.k) == (5, 3)
        tree = datamodel.stream_to_taxonomy([("f", "g"), ("f", "h")], 2)
        assert tree.k_per_level() == [1, 2]
