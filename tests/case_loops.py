"""One case of a compiled case loop, read as a check's answer.

``compiled.compile_run`` returns the axiom harness's case loop
``run(rng, cases, corners)``; one case with an env's values as its corners
runs the formula on that env.  Shared by the formula and axiom tests.
"""

import random

from buchi2.compiled import compile_run


def answer(run, values):
    """What a compiled case loop answers on one case whose sampled variables
    take values: True, False, or the error it returns, raised."""
    failed = run(random.Random(0), 1, tuple(values))
    if failed is None:
        return True
    if failed[2] is not None:
        raise failed[2]
    return False


def one_case(f, model, env, derived=(), runs=None):
    """f on env, compiled: one case of f's case loop over env's names, on
    env's values.  Envs with the same names share the loop kept in runs, so
    a runs dict passed over several envs reuses the loop's kept values."""
    runs = {} if runs is None else runs
    names = tuple(sorted(env))
    if names not in runs:
        runs[names] = compile_run(f, model, names, derived)
    return answer(runs[names], [env[name] for name in names])
