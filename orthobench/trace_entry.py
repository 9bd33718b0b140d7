"""Run one orthosfm command with a span around each call into a layer.

    python trace_entry.py SPANS_OUT OP_ID SPAWN_NS -- ARGV...

SPAWN_NS is the CLOCK_MONOTONIC time at which the benchmark started this
process, so the first span covers interpreter start-up.  The script times
``import orthosfm.cli``, replaces each public function of the layers below
under the name its caller looks it up by, runs ``cli.main(ARGV)`` and, at
exit, writes ``{"op": OP_ID, "spans": [...]}`` to SPANS_OUT, each span a list
``[id, parent, name, start_ns, end_ns, error, attrs]``.  It exits with the
command's own exit code.  Nothing is wrapped in an untraced run.
"""

import time

# read before any other import: python.start ends here
_ENTRY_NS = time.monotonic_ns()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# module -> functions that callers reach through that module's namespace.
# cli imports projected_sq_distances by name; two_frame's own matcher looks
# collinearity_residual_4pt up in its module globals.
WRAPPED = {
    "cli": ("projected_sq_distances",),
    "io_files": ("frames_from_csv", "frames_to_csv", "scene_to_json", "report_to_json"),
    "scene_sim": ("gen_scene", "render", "add_noise"),
    "solvers": ("solve_p3f3", "solve_p3f4", "solve_p4f3"),
    "two_frame": ("match_points", "rigidity_score", "base_interpretation_from_frames",
                  "ambiguity_family", "collinearity_residual_4pt", "residual_5pt"),
}


def _solver_counts(args, result):
    return {"candidates": len(result.candidates),
            "feasible": len(result.feasible_candidates)}


# counts recorded at the boundary: (args, result) -> attrs; result is None
# when the call raised
OBSERVERS = {
    "io_files.frames_from_csv": lambda args, result: {"bytes": len(args[0])},
    "io_files.frames_to_csv": lambda args, result: {"bytes": len(result)},
    "solvers.solve_p3f3": _solver_counts,
    "solvers.solve_p3f4": _solver_counts,
    "solvers.solve_p4f3": _solver_counts,
    "two_frame.match_points": lambda args, result: {"n": len(args[0].labels)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def record(self, name, start, end):
        self.spans.append([len(self.spans), None, name, start, end, None, None])

    def open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.monotonic_ns(), None, None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span, error=None):
        span[4] = time.monotonic_ns()
        span[5] = error
        self._stack.pop()

    def wrap(self, module, attr):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        name = fn.__module__.rpartition(".")[2] + "." + fn.__name__
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, type(exc).__name__)
                raise
            else:
                self.close(span)
                return result
            finally:
                if observe is not None:
                    try:
                        span[6] = observe(args, result)
                    except (AttributeError, TypeError, IndexError):
                        pass

        setattr(module, attr, traced)


def main(argv):
    out, op_id, spawn_ns = argv[1], int(argv[2]), int(argv[3])
    command = argv[5:]
    tracer = Tracer()
    tracer.record("python.start", spawn_ns, _ENTRY_NS)
    start = time.monotonic_ns()
    import orthosfm.cli as cli
    from orthosfm import io_files, scene_sim, solvers, two_frame
    tracer.record("cli.import", start, time.monotonic_ns())
    modules = {"cli": cli, "io_files": io_files, "scene_sim": scene_sim,
               "solvers": solvers, "two_frame": two_frame}
    for module, attrs in WRAPPED.items():
        for attr in attrs:
            tracer.wrap(modules[module], attr)
    span = tracer.open("cli.main")
    code, error = 1, None
    try:
        code = cli.main(command)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        tracer.close(span, error)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
