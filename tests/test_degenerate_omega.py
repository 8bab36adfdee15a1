"""The omega = Omega suite at any omega.

The quadruple check compares gaps in units of omega: at Omega = omega the
order-0 gaps are omega times integers and the slopes sqrt((j+1)/2) do not
depend on omega, so its report must not either. The slopes are checked by a
stencil whose step scales with omega; where a numeric slope misses its closed
form all the same, `spinboson degenerate` exits 1 naming the worst level,
after writing its report.
"""

import json

from spinboson import BasisIndex, degenerate_quadruple_check, perturbation
from spinboson.cli import EXIT_CERTIFICATION, main
from spinboson.spectral import SLOPE_TOL


def test_quadruple_report_does_not_depend_on_omega():
    for window in range(61):
        reports = {
            omega: json.dumps(degenerate_quadruple_check(window, omega))
            for omega in (1e-13, 1e-6, 0.7, 1.0, 3.7, 1e4)
        }
        assert len(set(reports.values())) == 1, window


def test_slope_miss_fails_the_command(tmp_path, capsys, monkeypatch):
    # the stencil meets the closed forms at any omega, so a miss is forced:
    # the command compares against closed slopes off by 1e-3 at j = 3
    closed = perturbation.degenerate_slopes

    def shifted(j):
        up, dn = closed(j)
        return (up + 1e-3, dn) if j == 3 else (up, dn)

    monkeypatch.setattr(perturbation, "degenerate_slopes", shifted)
    model = {"omega": 1e-6, "Omega": 1e-6, "g": 0.0, "n_fock": 16}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model, "output_dir": str(tmp_path / "out")}))
    assert main(["degenerate", "--config", str(path)]) == EXIT_CERTIFICATION
    report = json.loads((tmp_path / "out" / "degenerate.json").read_text())
    assert report["quadruple_check"]["n_violations"] == 0
    miss = {
        str(BasisIndex(row["label_n"], row["label_s"])): abs(row["slope_numeric"] - row["slope_closed"])
        for row in report["slopes"]
    }
    worst = max(miss, key=miss.get)
    assert worst == "(3,+1)"
    assert miss[worst] > SLOPE_TOL
    err = capsys.readouterr().err
    assert worst in err and f"{miss[worst]:.3g}" in err
