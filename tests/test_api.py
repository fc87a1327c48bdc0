"""The public names, and the names that ``bench/tracer.py`` wraps, resolve.

The tracer looks its classes and builders up by name when ``--trace 1`` is
on; a deletion that one of them misses would otherwise surface only there.
"""

import importlib
import inspect
import pathlib
import sys

import qweyl
from qweyl import weyl

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# what the tracer wraps, written out so that the test cannot shrink with it
CLASSES = {"coeff": ("ScalarValue",), "weyl": ("AlgebraElement",),
           "uq": ("HopfElement",),
           "gauss": ("GaussianState", "ElementaryOperator"),
           "haar": ("FiniteRankOperator",)}
BUILDERS = ("rho", "rho_inv", "a_op", "b_op", "gamma", "q_elem", "q_elem_inv")


def _tracer():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_every_public_name_resolves():
    assert len(set(qweyl.__all__)) == len(qweyl.__all__)
    for name in qweyl.__all__:
        assert getattr(qweyl, name, None) is not None, name


def test_the_names_the_tracer_wraps_exist():
    tracer = _tracer()
    for layer, names in CLASSES.items():
        assert set(names) <= set(tracer.CLASSES[layer]), layer
    assert set(BUILDERS) <= set(tracer.BUILDERS)
    for layer, names in tracer.CLASSES.items():
        module = importlib.import_module(f"qweyl.{layer}")
        for name in names:
            assert inspect.isclass(getattr(module, name, None)), (layer, name)
    for name in tracer.BUILDERS:
        assert inspect.isfunction(getattr(weyl, name, None)), name
