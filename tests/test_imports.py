"""``tie`` runs on numpy alone; scipy is a dev extra, for the bench's host
record."""

import os
import subprocess
import sys
from pathlib import Path

import tie

# every tie module, one forward and backward of the model and the CLI's help
PROBE = """
import importlib, io, pkgutil, sys
from contextlib import redirect_stdout
import numpy as np
import tie
for info in pkgutil.iter_modules(tie.__path__):
    importlib.import_module(f"tie.{info.name}")
from tie import autodiff as ad, cli, model
config = model.ModelConfig(d=8, heads=2, max_len=8, max_instr_len=8, vocab_size=10)
params = model.Parameters(config, 1, np.random.default_rng(0))
batch = model.make_batch([[4, 5, 6]], [[1, 2]], [[0]])
with ad.Tape():
    logits = model.forward(params, batch)
    ad.backward(logits, np.ones(logits.shape))
assert params.grad.any()
try:
    with redirect_stdout(io.StringIO()):
        cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_tie_runs_without_importing_scipy():
    path = [str(Path(tie.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "", f"scipy modules loaded: {run.stdout.strip()}"
