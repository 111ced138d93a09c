"""One benchmark run in a fresh interpreter.

    python3 bench/child.py <workload> <input.json> <out_dir> <result.json> <trace>

Runs the workload on the generated input and writes ``result.json``:
the monotonic time of the first update cycle (set-up ends there), the
exception the run raised if any, library versions and, when traced,
the tracer summary. ``chain-large`` and ``oracle-2mode`` go through the
``semichain`` command-line entry point; ``resample`` is a library path
and writes the validation suite before and after ``reformat`` as CSV.
"""

import json
import os
import sys
import time
import traceback

import tracer as tracing
import workloads


def _one_shot_stamp(module_name, attr, stamp):
    """Record the monotonic time of the first call of ``attr``, then put
    the original function back."""
    original = getattr(sys.modules[module_name], attr)
    places = tracing.holders_of(original)

    def first_call(*args, **kwargs):
        stamp.append(time.monotonic())
        for holder, key in places:
            setattr(holder, key, original)
        return original(*args, **kwargs)

    for holder, key in places:
        setattr(holder, key, first_call)


def _run_resample(inp):
    import numpy as np
    from semichain import chain as ch
    from semichain.model import FieldMode, ModelSpec
    from semichain.sampling import SamplerParams

    sz = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    spec = ModelSpec(h0=sz / 2, modes=[FieldMode(1.0, inp["g"] * sm)])
    rng = np.random.default_rng(inp["seed"])
    params = SamplerParams(step_cap=inp["step_cap"],
                           segment_len=inp["segment_len"],
                           burn_in=inp["burn_in"])
    phi0 = ch.coherent_bargmann([inp["alpha0"]], [1.0, 0.0])
    chain = ch.initial_chain(phi0, 1, inp["n_points"], inp["step_cap"], rng,
                             params=params)
    for _ in range(inp["steps"]):
        chain = ch.step(chain, spec, inp["eps"])
    out = ch.reformat(chain, params, rng)
    return chain, out


def _write_suite(path, before_chain, after_chain):
    from semichain import chain as ch
    suite = ch.standard_suite(before_chain.d, before_chain.n_modes)
    lines = [workloads.SUITE_HEADER]
    for stage, state in (("before", before_chain), ("after", after_chain)):
        for ob in suite:
            v, s = ch.estimate(state, ob)
            lines.append(",".join([stage, ob.name, format(v.real, ".17g"),
                                   format(v.imag, ".17g"), format(s, ".17g")]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def main(argv):
    workload, input_path, out_dir, result_path, trace = argv
    traced = trace == "1"
    result = {"first_cycle": None, "error": None}
    stamp = []
    tracer = None
    code = 1
    try:
        t0 = time.perf_counter()
        import semichain.cli
        import_s = time.perf_counter() - t0
        import numpy
        import scipy
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        else:
            _one_shot_stamp(*workloads.first_cycle_target(workload), stamp)
        if workload == "resample":
            with open(input_path) as f:
                inp = json.load(f)
            before, after = _run_resample(inp)
            if tracer is not None:
                tracer.uninstall()
            _write_suite(os.path.join(out_dir, "suite.csv"), before, after)
            code = 0
        else:
            code = semichain.cli.main(["run", input_path, "--output-dir", out_dir])
            if code != 0:
                result["error"] = f"semichain exited with {code}"
    except Exception as e:
        result["error"] = f"{type(e).__name__}: {e}"
        traceback.print_exc()
        code = 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            result["import_s"] = import_s
        if stamp:
            result["first_cycle"] = stamp[0]
        with open(result_path, "w") as f:
            json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
