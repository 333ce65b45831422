"""One benchmark sample: a fresh interpreter running one CLI call.

Usage: child.py probe
       child.py run [--spans PATH] -- <cli arguments>

The CLI writes its output to stdout as usual.  The child's own record goes
to stderr as the last line, prefixed by ``@perfbench ``: the monotonic time
at which ``unruhcap.cli`` finished importing (``ready``; the parent compares
it with its spawn time), the wall and CPU time of ``cli.main``, the peak RSS
and the environment fingerprint.  ``probe`` stops after the import.  With
``--spans`` the call is traced and its spans are written to PATH when it
ends, as ``[name index, start ns, end ns, parent index]`` rows.
"""

import json
import os
import sys
import time

MARKER = "@perfbench "


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``getrusage`` is not used: its ``ru_maxrss`` survives ``exec``, so a child
    would report the parent's resident size at fork time when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv, cli, ready: float) -> int:
    mode, rest = argv[0], argv[1:]
    record = {"ready": ready}
    code = 0
    if mode == "run":
        split = rest.index("--")
        options, cli_args = rest[:split], rest[split + 1 :]
        spans_path = options[1] if options[:1] == ["--spans"] else None
        tracer = None
        if spans_path:
            from tracing import Tracer

            tracer = Tracer(run_id=os.path.basename(spans_path))
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        code = cli.main(cli_args)
        sys.stdout.flush()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        record.update(wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0, exit=code)
        if tracer is not None:
            tracer.uninstall()
            from tracing import layer_metrics

            counts = tracer.summary()
            record.update(counts=counts, layers=layer_metrics(tracer.spans, counts))
            names = sorted({span[0] for span in tracer.spans})
            index = {name: i for i, name in enumerate(names)}
            spans = [
                [index[name], round(start * 1e9), round(end * 1e9), parent]
                for name, start, end, parent in tracer.spans
            ]
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(
                    {"run_id": tracer.run_id, "names": names, "spans_ns": spans},
                    handle,
                    separators=(",", ":"),
                )
    import numpy
    from unruhcap import kernels

    record.update(
        peak_rss_mb=peak_rss_mb(),
        backend=kernels.BACKEND,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        package=os.path.dirname(os.path.abspath(cli.__file__)),
    )
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    import unruhcap.cli

    sys.exit(main(sys.argv[1:], unruhcap.cli, time.monotonic()))
