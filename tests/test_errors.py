import os
import subprocess
import sys
import textwrap

import modunits
import modunits.classgroup
import modunits.errors

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_one_consistency_error_class():
    assert modunits.ConsistencyError is modunits.classgroup.ConsistencyError
    assert modunits.ConsistencyError is modunits.errors.ConsistencyError


def test_broken_invariants_raise_under_optimize():
    # -O strips assert statements; the invariant checks must survive it
    script = textwrap.dedent(
        """
        from importlib import import_module
        assert False, "assert statements should be stripped under -O"
        from modunits import ConsistencyError, LevelContext, basis

        # the package re-exports the function `basis` over its module name
        basis_module = import_module("modunits.basis")
        import_module("modunits.siegel").euler_phi = lambda n: 0  # cusp count is off
        try:
            LevelContext.of(13)
        except ConsistencyError as exc:
            print("siegel:", exc)
        basis_module.euler_phi = lambda n: 100  # basis size is off
        try:
            basis(15)
        except ConsistencyError as exc:
            print("basis:", exc)
        try:
            import_module("modunits.bernoulli")._orbit_norm([1, 1, 1], 3)  # C = Phi_3: norm 0
        except ConsistencyError as exc:
            print("bernoulli:", exc)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["siegel", "basis", "bernoulli"], proc.stdout
