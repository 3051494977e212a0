"""The package's public surface: each submodule's __all__, listed once."""

import subprocess
import sys

import dualsel
from dualsel import analytic, montecarlo, selection, specfun

ORACLES = ("ChannelRealization", "SlotRates", "draw_realization", "slot_rates", "cdf_order_stat")


def test_all_is_the_submodules_all():
    names = dualsel.__all__
    assert len(names) == len(set(names))
    assert names == [
        "__version__",
        *analytic.__all__,
        *montecarlo.__all__,
        *selection.__all__,
        *specfun.__all__,
    ]
    assert all(hasattr(dualsel, name) for name in names)


def test_oracles_are_not_exported():
    for module in (dualsel, analytic, montecarlo):
        for name in ORACLES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_import_loads_no_executor():
    # the Monte Carlo draw starts a plain thread; importing concurrent.futures
    # would add about 7 ms to every process that imports the package
    code = "import sys, dualsel; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
