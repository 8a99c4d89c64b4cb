"""The benchmark's traced run can still name every per-layer metric.

bench/spans.py wraps the public functions and the ThreadPoolExecutor that
each ehl module binds, and a per-layer metric exists only while the layers
it reads exist. A metric that BENCHMARK.json declares and the trace can no
longer produce would drop out of the benchmark's result line, so renaming
or removing a traced function, or a module's pool, fails here first.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from spans import LayerStats, Tracer, per_layer_metrics  # noqa: E402


def test_every_declared_per_layer_metric_is_produced():
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = Tracer()
    with tracer.installed():
        pass
    # bench/run.py opens a cli span around every traced request
    tracer.layers.add("cli")
    metrics = per_layer_metrics(LayerStats([]), tracer.layers, 1, 0.0, 1.0)
    assert [name for name in declared if metrics.get(name) is None] == []
