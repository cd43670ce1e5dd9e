"""Seeded streams and output files pinned by their sha256 digests.

The urns draw their flags' uniforms, resolve their labels and count their taxa in
blocks; these digests were taken when each urn drew all its uniforms at once and
counted its labels with one np.bincount, so a change to the blocks that moved a
single label or output byte fails here.  The CSV `# config:` line and the JSON
"_config" entry name the output directory, so they are left out of the digests.
"""

import hashlib
import json

import pytest

from sigmadiv import cli, gibbs, taxo

URN_MODELS = {"dp": gibbs.DirichletProcess(50.0), "dm": gibbs.DirichletMultinomial(-1.0, 2000),
              "ap": gibbs.AldousPitman(2.0)}

URN_DIGESTS = {
    ("dp", 1): "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    ("dp", 2): "01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d",
    ("dp", 8193): "361b29643bb77b72476d18471f4feafe511201eb7854d7cde3077277e46435bd",
    ("dp", 100_000): "d7b28f038c6be2484753a12299e0265362f06defc0627f679cb243edddce50e1",
    ("dm", 1): "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    ("dm", 2): "01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d",
    ("dm", 8193): "03d618e4d19d3b26a4593be317b8fac249098f5808c2f3ddafbd81efb3ca4782",
    ("dm", 100_000): "0a681e4d78153be172e86f62c247703e4e479e1a2bdfee26f1d223411e85602a",
    ("ap", 1): "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    ("ap", 2): "01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d",
    ("ap", 8193): "630a2bc772215059311d4542fd83ff7a72ddaa6583f1c91dbbecc487a95744fe",
    ("ap", 100_000): "9f7c3f1fe0a70262e89939080b00e74f1c895c7cefd550ff477b48c6db91db1f",
}

NESTED_DIGEST = "e28bd18dde532270cdb31f637eca411e682b2cb745310f4162fc2849139945f3"

SIMULATE = {
    "sim-dp": ["simulate", "--family", "dp", "--alpha", 50, "--n", 30_000, "--seed", 3],
    "sim-dm": ["simulate", "--family", "dm", "--bound-h", 500, "--n", 30_000, "--seed", 3],
    "sim-ap": ["simulate", "--family", "ap", "--gamma", 2, "--n", 30_000, "--seed", 3,
               "--format", "json"],
}
VALIDATE = {  # on the abundances of the simulations above
    "val-dp": ["validate", "--input", "{sim-dp}", "--family", "dp", "--alpha", 50,
               "--replicates", 7, "--seed", 4],
    "val-dm": ["validate", "--input", "{sim-dm}", "--family", "dm", "--bound-h", 500,
               "--replicates", 5, "--seed", 4, "--format", "json"],
}
OUTPUT_DIGESTS = {
    ("sim-dp", "accumulation.csv"):
        "37443ae30bfe1ed4cd943f15563a8535dde6a7874a6cb4403ff026c5d618ebfe",
    ("sim-dp", "simulated_abundance.csv"):
        "41666a116667d90665d8cba1b5589ce8b29c8bf79d9a8881f3e475892b65875b",
    ("sim-dm", "accumulation.csv"):
        "0002f23ef1bbf53537821495a4457303c9428e1f7cb04b2bbd51ab153c30efea",
    ("sim-dm", "simulated_abundance.csv"):
        "7dbb97321afd531c65dfa38e148b751c1fc61bd8fb30ed318e2ca7d69207a3f5",
    ("sim-ap", "accumulation.json"):
        "60f3594d328ce29e53914c09a975a787a2ff3b360af9a763b6f74d33e3a505f6",
    ("sim-ap", "data_summary.json"):
        "6bb84abbafcaab9ef702cbf11e3673f8d858afefad79b5e08210cdc512a02f7b",
    ("sim-ap", "simulated_abundance.csv"):
        "31226359f464e38cb77cabceea6dfeec900c83e7b281e8f14a33e2c011786d59",
    ("val-dp", "freq_counts.csv"):
        "eceeee9f95b6d352edc019ab0f90313df7fe316431e298029d80fbe3307333c7",
    ("val-dp", "rad.csv"): "fa09b8314fa22b704a4304c40ef4793021021ab6802f570ad1afe0cc407cd556",
    ("val-dp", "rarefaction.csv"):
        "8d57b04d47090d120189edddf7173e97b140ba28720dc23f844830968fbc5d08",
    ("val-dm", "data_summary.json"):
        "7a9452a8c9410a3dc72ed5a11dad618c71a656cd8bcd7c80a6b08484ae518b0d",
    ("val-dm", "freq_counts.json"):
        "c3f4ae5c81f5d4fb5f5eaf393882eb4a1c907c744d55caeb6a6589d767f1558f",
    ("val-dm", "rad.json"): "9d2908869def0ea8edb56eed40eea0b3745dac4ad3a2070135ce10ea62010464",
    ("val-dm", "rarefaction.json"):
        "80c6f567518f277b64af146677f210b0029718b84e1cf9c5665ece4e51c595eb",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("family, n", sorted(URN_DIGESTS))
def test_urn_stream(family, n):
    labels = gibbs.urn_sample(URN_MODELS[family], n, 11)
    assert _sha256(labels.astype("<i4").tobytes()) == URN_DIGESTS[family, n]


def test_nested_urn_sample():
    tree = taxo.nested_urn_sample(cli._parse_levels_spec("dp:8;dp:2;ap:0.8"), 20_000, 5)
    assert _sha256(json.dumps(tree.to_json(), sort_keys=True).encode()) == NESTED_DIGEST


def _data_digest(path):
    """The digest of a CSV file's lines after its config line, or of a JSON file's
    object without "_config", re-encoded with sorted keys."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        text = "".join(line for line in text.splitlines(True)
                       if not line.startswith("# config:"))
    else:
        payload = json.loads(text)
        payload.pop("_config", None)
        text = json.dumps(payload, sort_keys=True)
    return _sha256(text.encode())


def test_simulate_and_validate_outputs(tmp_path):
    inputs = {name: tmp_path / name / "simulated_abundance.csv" for name in SIMULATE}
    for name, argv in {**SIMULATE, **VALIDATE}.items():
        argv = [str(a).format(**inputs) for a in argv]
        assert cli.main(argv + ["--output-dir", str(tmp_path / name)]) == 0
    got = {(name, path.name): _data_digest(path)
           for name in {**SIMULATE, **VALIDATE} for path in (tmp_path / name).iterdir()}
    assert got == OUTPUT_DIGESTS
