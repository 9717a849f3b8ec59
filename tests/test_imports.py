"""What a fresh process imports: no command and no fit loads scipy, and
the fit commands run where scipy cannot be imported at all."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import fp_vertical_rows, write_gam_tables
import wordbits
from wordbits.tables import write_table

_PKG_ROOT = str(Path(wordbits.__file__).resolve().parent.parent)

_SCIPY_MODULES = """
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def _loaded_scipy(script, *args):
    """The scipy modules loaded once script has run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": _PKG_ROOT}
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script + _SCIPY_MODULES,
         *args], capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_corpus_stages_load_no_scipy(tmp_path):
    (tmp_path / "input.tsv").write_text(
        "doc_id\tseg_id\tsrc_speaker_id\ttgt_speaker_id\tsrc_raw\ttgt_raw\n"
        "1\t1\tspk1\tint1\twir haben, das Verfahren\twe have euh / the procedure\n"
        "1\t2\tspk1\tint1\theute nicht gesehen\tnot seen today\n",
        encoding="utf-8")
    script = """
from wordbits.cli import main
d = sys.argv[1]
for argv in (["normalize", "--input", d + "/input.tsv"],
             ["annotate", "--mock", "--input", d + "/clean.jsonl.gz"]):
    assert main(argv + ["--output-dir", d, "--mode", "sp"]) == 0, argv
"""
    assert _loaded_scipy(script, str(tmp_path)) == []
    assert (tmp_path / "wide.tsv.gz").exists()


def test_fits_load_no_scipy():
    script = """
import numpy as np
from wordbits import fp, gam
data = fp.simulate_observations(400, (-1.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0),
                                n_groups=8, seed=3)
fp.fit_logistic(data, random_intercepts=("speaker_id",))
x = np.linspace(0.0, 1.0, 60)
gam.fit_gam(x, 2.0 * x + np.sin(6.0 * x)).curve(10)
"""
    assert _loaded_scipy(script) == []


def test_fit_commands_run_where_scipy_cannot_be_imported(tmp_path):
    write_table(fp_vertical_rows(), "vertical", tmp_path / "vertical.tsv.gz")
    write_gam_tables(tmp_path, "de-en")
    script = """
import importlib.abc


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"no module named {name!r}")
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was importable")
from wordbits.cli import main
d = sys.argv[1]
common = ["--output-dir", d, "--direction", "de-en", "--mode", "sp"]
for argv in (["fp-analyze", "--input", d + "/vertical.tsv.gz"],
             ["fp-analyze", "--input", d + "/vertical.tsv.gz",
              "--random-intercepts", "speaker_id,doc_id"],
             ["gam", "--input", d + "/long.tsv.gz", "--wide", d + "/wide.tsv.gz"]):
    assert main(argv + common) == 0, argv
"""
    assert _loaded_scipy(script, str(tmp_path)) == []
    assert (tmp_path / "fp_model.tsv.gz").exists()
    assert (tmp_path / "gam_curve.tsv.gz").exists()
