"""`resonance` with a nonzero seed draws its couplings at random, reproducibly."""

import json

from spinboson.cli import EXIT_CERTIFICATION, EXIT_OK, main

MODEL = {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 8}
G_MIN, G_MAX = 0.05, 0.5


def run(tmp_path, seed, name):
    out = tmp_path / name
    cfg = {
        "model": MODEL,
        "seed": seed,
        "resonance": {"n_samples": 4, "g_min": G_MIN, "g_max": G_MAX},
        "output_dir": str(out),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert main(["resonance", "--config", str(path)]) in (EXIT_OK, EXIT_CERTIFICATION)
    return (out / "resonance.json").read_bytes()


def couplings(text: bytes) -> list[float]:
    return [sample["g"] for sample in json.loads(text)["samples"]]


def test_seeded_draws_are_sorted_in_range_and_reproducible(tmp_path):
    first, again = run(tmp_path, 7, "a"), run(tmp_path, 7, "b")
    assert first == again
    g = couplings(first)
    assert len(g) == 4 and g == sorted(g)
    assert all(G_MIN <= x <= G_MAX for x in g)
    assert couplings(run(tmp_path, 8, "c")) != g
