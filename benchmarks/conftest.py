"""Benchmark harness support: persist every regenerated table/figure."""

import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def _json_key(key):
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def _jsonable(obj):
    """Recursively make experiment result data JSON-encodable.

    Tuple dict keys (sweep coordinates like ``(shared, locks, threads)``)
    become ``/``-joined strings; tuples become lists.
    """
    if isinstance(obj, dict):
        return {_json_key(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    return obj


def save_artifact(results_dir, name, rendered, data=None):
    """Write a rendered table/figure to benchmarks/results/<name>.txt.

    When ``data`` is given, a machine-readable ``<name>.json`` is written
    next to the rendering so results can be diffed across changes
    without parsing ASCII tables.
    """
    path = os.path.join(results_dir, "%s.txt" % name)
    with open(path, "w") as handle:
        handle.write(rendered)
        handle.write("\n")
    if data is not None:
        json_path = os.path.join(results_dir, "%s.json" % name)
        with open(json_path, "w") as handle:
            json.dump(_jsonable(data), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return path
