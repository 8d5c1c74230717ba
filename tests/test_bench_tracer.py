"""The benchmark's traced pipeline still wraps every program name it times.

``perfbench/pipeline.py`` replaces module-level names of the program by
timing wrappers.  If one of them is renamed or its call fails, the traced
run fails, while the benchmark's own smoke test only checks that the exit
code agrees with its ``correct`` flag.  This runs the tracer on two tiny
configs and requires a clean exit, no span that ended in an exception, and
a span for every wrapped name.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

TINY = "M = 40\nN = 80\niters = 2\nseeds = 2\n"
CONFIGS = {
    "mp_gaussian": TINY + "spectrum = mp\nmethods = oamp,amp,pca\n",
    "beta_ri": TINY + "spectrum = beta\nmethods = oamp,pca\n",
}


def traced_spans(tmp_path, name, text):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    result = tmp_path / f"{name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "pipeline.py"), str(cfg), "--seeds", "2",
         "--out", str(tmp_path / name), "--result", str(result)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())["spans"]


def test_every_wrapped_name_is_traced(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    pipeline = importlib.import_module("pipeline")
    spans = [s for name, text in CONFIGS.items()
             for s in traced_spans(tmp_path, name, text)]
    failed = [(s["name"], s["error"]) for s in spans if "error" in s]
    assert failed == []
    missing = {span for _, _, span in pipeline.WRAPPED} - {s["name"] for s in spans}
    assert missing == set()
