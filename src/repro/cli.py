"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compress``    compress a field file into a stream file
``decompress``  reconstruct a field from a stream file
``info``        inspect a compressed stream's header
``datasets``    list the synthetic SDRBench registry
``generate``    write a synthetic field to disk
``experiment``  run a registered paper experiment and print its table
``throughput``  query the GPU performance model for one configuration
``stats``       summarize an exported trace (per-stage time breakdown)

``compress`` and ``decompress`` accept ``--trace OUT`` / ``--metrics OUT``
to record the run through :mod:`repro.telemetry` and export a Chrome trace
(or JSONL, if OUT ends in ``.jsonl``) and a Prometheus text snapshot; both
take ``--retries`` / ``--task-timeout`` to tune the engine's fault
tolerance, and ``decompress --salvage`` best-effort-recovers a damaged
multi-chunk container (see ``docs/RELIABILITY.md``).  ``compress --plan``
selects the per-chunk planner (``auto``/``ratio`` probe each chunk and may
route it to the interpolation or constant predictor; ``docs/PLANNING.md``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.errors import ReproError

__all__ = ["main", "build_parser"]

_CODECS = ("fz-gpu", "cusz", "cusz-rle", "cuszx", "mgard", "cuzfp")


def _parse_shape(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        dims = tuple(int(x) for x in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: use e.g. 512x512") from exc
    if not dims or any(d <= 0 for d in dims):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}")
    return dims


def _make_codec(name: str, args: argparse.Namespace):
    from repro.baselines import CuSZ, CuSZx, CuZFP, MGARDGPU
    from repro.baselines.cusz_rle import CuSZRLE
    from repro.core.pipeline import FZGPU

    if name == "fz-gpu":
        return FZGPU(backend=getattr(args, "backend", None))
    if name == "cusz":
        return CuSZ()
    if name == "cusz-rle":
        return CuSZRLE()
    if name == "cuszx":
        return CuSZx()
    if name == "mgard":
        return MGARDGPU()
    if name == "cuzfp":
        return CuZFP(rate=args.rate if args.rate else 8.0)
    raise SystemExit(f"unknown codec {name!r}")


def _check_bound(data: np.ndarray, recon: np.ndarray, eb_abs: float) -> tuple[bool, float]:
    """Return (within-bound?, max abs error) using the shared tolerance.

    The tolerance is ``eb_abs`` with relative slack plus one float32 ulp at
    the field's peak magnitude (the reconstruction is stored as float32, so
    a final half-ulp rounding there is unavoidable).
    """
    err = float(np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))))
    ulp = float(np.spacing(np.float32(np.abs(data).max(initial=0.0))))
    return err <= eb_abs * (1.0 + 1e-5) + ulp, err


def _telemetry_begin(args: argparse.Namespace) -> bool:
    """Enable the default recorder when ``--trace``/``--metrics`` was given."""
    if not getattr(args, "telemetry_opts", False):
        return False
    if not (args.trace or args.metrics):
        return False
    from repro import telemetry

    rec = telemetry.get_recorder()
    rec.clear()
    rec.enabled = True
    return True


def _telemetry_end(args: argparse.Namespace) -> None:
    """Export and shut down the default recorder (pairs with begin)."""
    from repro import telemetry
    from repro.telemetry import export

    rec = telemetry.get_recorder()
    rec.enabled = False
    if args.trace:
        if args.trace.endswith(".jsonl"):
            export.write_jsonl(rec, args.trace)
        else:
            export.write_chrome_trace(rec, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics:
        export.write_prometheus(rec, args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    rec.clear()


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.harness.report import render_table
    from repro.telemetry import stats

    events = stats.load_trace(args.trace)
    if not events:
        print(f"no span events found in {args.trace}", file=sys.stderr)
        return 1
    summary = stats.span_summary(events)
    print(
        f"{summary['spans']} spans across {summary['processes']} process(es) / "
        f"{summary['threads']} thread(s), {summary['wall_ms']:.2f} ms wall"
    )
    rows = stats.stage_breakdown(events)
    if rows:
        for row in rows:
            row["total_ms"] = f"{row['total_ms']:.3f}"
            row["mean_us"] = f"{row['mean_us']:.1f}"
            row["time_pct"] = f"{row['time_pct']:.1f}"
        print(render_table(rows, title="per-stage breakdown (Fig. 1 view)"))
    else:
        print("no stage.* spans in this trace")
    brows = stats.backend_breakdown(events)
    if brows:
        for row in brows:
            row["total_ms"] = f"{row['total_ms']:.3f}"
            row["mean_us"] = f"{row['mean_us']:.1f}"
            row["mb_per_s"] = f"{row['mb_per_s']:.1f}"
        print(render_table(brows, title="per-backend breakdown"))
    prows = stats.plan_breakdown(events)
    if prows:
        for row in prows:
            row["total_ms"] = f"{row['total_ms']:.3f}"
            row["mean_us"] = f"{row['mean_us']:.1f}"
            row["ratio"] = f"{row['ratio']:.2f}"
        print(render_table(prows, title="per-plan breakdown (planner view)"))
    return 0


def _cli_engine(args: argparse.Namespace):
    """Build the batch engine from the shared ``--jobs``/``--pool``/... opts."""
    from repro.engine import DEFAULT_RETRIES, Engine

    retries = args.retries if args.retries is not None else DEFAULT_RETRIES
    return Engine(
        jobs=args.jobs,
        pool=args.pool,
        backend=getattr(args, "backend", None),
        retries=retries,
        task_timeout=args.task_timeout,
    )


def cmd_compress(args: argparse.Namespace) -> int:
    import pathlib

    from repro.io import load_field, save_stream

    inputs = [pathlib.Path(p) for p in args.inputs]
    if len(inputs) > 1 and not args.batch:
        raise SystemExit("multiple inputs require --batch (output becomes a directory)")
    if args.batch:
        outdir = pathlib.Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        outputs = [outdir / (p.stem + ".fz") for p in inputs]
    else:
        outputs = [pathlib.Path(args.output)]

    violations = 0

    def report(name: str, original: int, compressed: int) -> None:
        print(
            f"{args.codec}: {name}: {original} -> {compressed} bytes "
            f"(ratio {original / compressed:.2f}x)"
        )

    def verify(name: str, data: np.ndarray, recon: np.ndarray, eb_abs: float) -> None:
        nonlocal violations
        ok, err = _check_bound(data, recon, eb_abs)
        status = "OK" if ok else "VIOLATED"
        print(f"  verify {name}: max|err| {err:.3e} vs bound {eb_abs:.3e} [{status}]")
        if not ok:
            violations += 1

    if args.codec == "fz-gpu":
        with _cli_engine(args) as engine:
            if args.chunk_mb is not None:
                # streaming path: memory-mapped input, multi-chunk container out
                chunk_bytes = max(int(args.chunk_mb * (1 << 20)), 1)
                for src, dst in zip(inputs, outputs):
                    rep = engine.compress_file(
                        src, dst, args.eb, args.mode,
                        shape=args.shape, chunk_bytes=chunk_bytes,
                        plan=args.plan,
                    )
                    plans = ""
                    if any(pl != "fast" for pl in rep.plans):
                        counts: dict[str, int] = {}
                        for pl in rep.plans:
                            counts[pl] = counts.get(pl, 0) + 1
                        plans = " plans " + "+".join(
                            f"{n}x{pl}" for pl, n in sorted(counts.items())
                        )
                    report(f"{src.name} [{rep.n_chunks} chunks{plans}]",
                           rep.original_bytes, rep.compressed_bytes)
                    if args.verify:
                        verify(src.name, load_field(src, shape=args.shape),
                               engine.decompress(dst), rep.eb_abs)
            else:
                fields = [load_field(p, shape=args.shape) for p in inputs]
                results = engine.compress_batch(
                    fields, args.eb, args.mode, plan=args.plan
                )
                for src, dst, result in zip(inputs, outputs, results):
                    save_stream(dst, result.stream)
                    report(src.name, result.original_bytes, result.compressed_bytes)
                if args.verify:
                    recons = engine.decompress_batch([r.stream for r in results])
                    for src, field, recon, result in zip(inputs, fields, recons, results):
                        verify(src.name, field, recon, result.eb_abs)
    else:
        codec = _make_codec(args.codec, args)
        for src, dst in zip(inputs, outputs):
            data = load_field(src, shape=args.shape)
            if args.codec == "cuzfp":
                result = codec.compress(data, rate=args.rate or 8.0)
            else:
                result = codec.compress(data, eb=args.eb, mode=args.mode)
            save_stream(dst, result.stream)
            report(src.name, data.nbytes, result.compressed_bytes)
            if args.verify:
                if args.codec == "cuzfp":
                    print("  verify: skipped (cuZFP is fixed-rate, not error-bounded)")
                else:
                    verify(src.name, data, codec.decompress(result.stream),
                           result.eb_abs)
    if violations:
        print(f"error bound violated for {violations} field(s)", file=sys.stderr)
        return 1
    return 0


def cmd_decompress(args: argparse.Namespace) -> int:
    from repro.io import load_stream, save_field

    from repro.engine.container import looks_like_container

    if looks_like_container(args.input):
        with _cli_engine(args) as engine:
            result = engine.decompress(
                args.input, slab=args.roi or None, salvage=args.salvage
            )
        recon, report = result if args.salvage else (result, None)
        save_field(args.output, recon)
        if args.salvage:
            print(report.summary())
        what = f"ROI {args.roi} -> " if args.roi else ""
        how = " (salvaged)" if args.salvage else ("" if args.roi else " (multi-chunk)")
        print(f"reconstructed {what}{recon.shape} float32{how} -> {args.output}")
        return int(args.salvage and report.lost_bytes > 0)
    for flag in ("salvage", "roi"):
        if getattr(args, flag):
            raise SystemExit(f"--{flag} needs a multi-chunk container input")
    stream = load_stream(args.input)
    codec = _make_codec(args.codec, args)
    if args.codec == "fz-gpu":
        # magic-sniffing decode: FZGP fast streams plus the planner's
        # FZIN/FZCN single-stream layouts
        from repro.planner import decompress_any

        recon = decompress_any(stream, codec=codec)
    else:
        recon = codec.decompress(stream)
    save_field(args.output, recon)
    print(f"reconstructed {recon.shape} float32 -> {args.output}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.core.format import unpack_stream
    from repro.io import load_stream
    from repro.planner import (
        CONSTANT_MAGIC,
        INTERP_MAGIC,
        constant_info,
        interp_info,
        plan_name,
    )

    from repro.engine.container import looks_like_container, read_containers

    if looks_like_container(args.input):
        with open(args.input, "rb") as f:
            indexes = read_containers(f)
        for i, idx in enumerate(indexes):
            print(
                f"FZ-GPU multi-chunk container #{i} (v{idx.version}): "
                f"shape={idx.shape} split_axis={idx.split_axis}"
            )
            print(f"  error bound (abs): {idx.eb_abs:g}")
            payload = sum(s.seg_bytes for s in idx.segments)
            print(
                f"  segments: {len(idx.segments)} "
                f"({payload} payload bytes of {idx.container_bytes} total)"
            )
            for ordinal, seg in enumerate(idx.segments):
                print(
                    f"    [{ordinal}] rows {seg.extent:>8d}  "
                    f"{seg.seg_bytes:>10d} bytes @ {seg.offset}  "
                    f"plan {plan_name(seg.plan)}"
                )
        return 0
    stream = load_stream(args.input)
    if stream[:4] == INTERP_MAGIC:
        inf = interp_info(stream)
        print(
            f"FZ interp stream (FZIN): shape={inf['shape']} "
            f"anchor stride {inf['anchor_stride']}"
        )
        print(f"  error bound (abs): {inf['eb_abs']:g}")
        print(f"  anchors: {inf['n_anchors']}")
        print(
            f"  blocks: {inf['n_blocks']} total, {inf['n_nonzero']} literal "
            f"({1 - inf['n_nonzero'] / inf['n_blocks']:.1%} elided)"
            if inf["n_blocks"]
            else "  blocks: 0"
        )
        if inf["n_saturated"]:
            print(f"  WARNING: {inf['n_saturated']} saturated residuals "
                  f"(error bound not guaranteed at those points)")
        return 0
    if stream[:4] == CONSTANT_MAGIC:
        inf = constant_info(stream)
        print(f"FZ constant stream (FZCN): shape={inf['shape']}")
        print(f"  error bound (abs): {inf['eb_abs']:g}")
        print(f"  fill value: {inf['fill']:g}")
        return 0
    # unpack_stream (not just the header parser) so geometry and the v2 CRC
    # are validated — `info` then doubles as a stream integrity check.
    header, _encoded = unpack_stream(stream)
    print(
        f"FZ-GPU stream (format v{header.version}): shape={header.shape} "
        f"(padded {header.padded_shape})"
    )
    print(f"  error bound (abs): {header.eb:g}")
    print(f"  chunk: {header.chunk}")
    print(
        f"  blocks: {header.n_blocks} total, {header.n_nonzero} literal "
        f"({1 - header.n_nonzero / header.n_blocks:.1%} elided)"
    )
    if header.n_saturated:
        print(f"  WARNING: {header.n_saturated} saturated residuals "
              f"(error bound not guaranteed at those points)")
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets import DATASETS

    for name, spec in DATASETS.items():
        paper = "x".join(map(str, spec.paper_shape))
        bench = "x".join(map(str, spec.bench_shape))
        print(f"{name:10s} paper {paper:>22s}  bench {bench:>14s}  {spec.description}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import generate
    from repro.io import save_field

    field = generate(args.dataset, field=args.field, shape=args.shape,
                     seed=args.seed)
    save_field(args.output, field.data)
    print(f"{field.dataset}/{field.name} {field.shape} -> {args.output}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness import render_table, run_experiment

    res = run_experiment(args.id)
    print(render_table(res.rows, title=res.title))
    print("\nshape checks:")
    for name, ok in res.checks.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    for note in res.notes:
        print(f"  note: {note}")
    return 0 if res.all_checks_pass else 1


def cmd_throughput(args: argparse.Namespace) -> int:
    from repro.datasets import generate
    from repro.gpu import get_device
    from repro.perf import measure_throughput, overall_throughput

    field = generate(args.dataset)
    device = get_device(args.device)
    kwargs = {"rate": args.rate or 8.0} if args.codec == "cuzfp" else {
        "eb": args.eb, "mode": args.mode,
    }
    rep = measure_throughput(args.codec, field.data, device, **kwargs)
    print(f"{args.codec} on {device.name} / {args.dataset}:")
    print(f"  compression ratio:   {rep.ratio:.2f}x")
    print(f"  compression speed:   {rep.throughput_gbps:.1f} GB/s (modelled)")
    print(f"  overall throughput:  "
          f"{overall_throughput(rep.throughput_gbps, rep.ratio, device.pcie_gbps):.1f}"
          f" GB/s at {device.pcie_gbps} GB/s interconnect")
    for kernel, t in rep.kernel_times.items():
        if kernel != "total":
            print(f"    {kernel:22s} {t * 1e6:10.1f} us")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.serve import App, ServeConfig, Server, enable_metrics

    # /metrics should report live counters even without --trace/--metrics
    enable_metrics()
    engine = _cli_engine(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_connections=args.max_connections,
        queue_high_water=args.queue_high_water,
        quota_rate=args.quota_rps,
        quota_burst=args.quota_burst,
        max_body_bytes=int(args.max_body_mb * (1 << 20)),
        chunk_bytes=(int(args.chunk_mb * (1 << 20)) if args.chunk_mb
                     else ServeConfig.chunk_bytes),
        plan=args.plan,
    )
    server = Server(App(engine, config))

    async def _main() -> None:
        task = asyncio.ensure_future(server.run())
        while server.address is None and not task.done():
            await asyncio.sleep(0.01)
        if server.address is not None:
            # SIGTERM stops the server like Ctrl-C does, so engine.close()
            # below still unlinks the shared-memory arena
            with contextlib.suppress(NotImplementedError):  # Windows loops
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM, server.stop
                )
            host, port = server.address
            print(f"repro serve listening on http://{host}:{port} "
                  f"(pool={engine.pool_kind} jobs={engine.jobs})")
        await task

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        engine.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_codec_opts(sp):
        sp.add_argument("--codec", choices=_CODECS, default="fz-gpu")
        sp.add_argument("--eb", type=float, default=1e-3, help="error bound")
        sp.add_argument("--mode", choices=("rel", "abs"), default="rel")
        sp.add_argument("--rate", type=float, default=None,
                        help="bits/value (cuZFP only)")
        sp.add_argument("--backend", default=None, metavar="NAME",
                        help="fz-gpu kernel backend: fused (the default, "
                             "also 'auto') or reference (the oracle); output "
                             "bytes are identical for every backend")

    def add_engine_opts(sp):
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker count for the batch engine (fz-gpu)")
        sp.add_argument("--pool", choices=("thread", "process"), default="thread",
                        help="worker pool kind (threads release the GIL in NumPy)")
        sp.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry budget for transient task failures "
                             "(default: engine default)")
        sp.add_argument("--task-timeout", type=float, default=None, metavar="S",
                        help="per-task wall-clock budget in seconds "
                             "(default: none)")

    def add_telemetry_opts(sp):
        sp.add_argument("--trace", metavar="OUT", default=None,
                        help="record the run and write a Chrome trace "
                             "(JSONL if OUT ends in .jsonl)")
        sp.add_argument("--metrics", metavar="OUT", default=None,
                        help="record the run and write Prometheus text metrics")
        sp.set_defaults(telemetry_opts=True)

    sp = sub.add_parser("compress", help="compress one or more field files")
    sp.add_argument("inputs", nargs="+", metavar="input",
                    help="field file(s); several need --batch")
    sp.add_argument("output", help="stream file, or directory with --batch")
    sp.add_argument("--shape", type=_parse_shape, default=None,
                    help="dims for raw files, e.g. 512x512")
    sp.add_argument("--batch", action="store_true",
                    help="treat output as a directory; one .fz per input")
    sp.add_argument("--chunk-mb", type=float, default=None,
                    help="stream fz-gpu input in chunks of this many MiB "
                         "(writes a multi-chunk container)")
    sp.add_argument("--verify", action="store_true",
                    help="decompress and check the error bound; exit 1 on "
                         "violation")
    sp.add_argument("--plan", choices=("auto", "fast", "ratio", "interp",
                                       "constant"), default="fast",
                    help="fz-gpu chunk planner: fast keeps the fused "
                         "pipeline byte-identical, auto/ratio probe each "
                         "chunk and may route it to the interpolation or "
                         "constant predictor, interp/constant force one "
                         "(see docs/PLANNING.md)")
    add_codec_opts(sp)
    add_engine_opts(sp)
    add_telemetry_opts(sp)
    sp.set_defaults(fn=cmd_compress)

    sp = sub.add_parser("decompress", help="reconstruct a field")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--salvage", action="store_true",
                    help="best-effort decode of a damaged multi-chunk "
                         "container: recover intact segments, NaN-fill the "
                         "rest, print a salvage report (exit 1 if bytes "
                         "were lost)")
    sp.add_argument("--roi", metavar="SLAB", default=None,
                    help="decode only this hyperslab of a multi-chunk "
                         "container, e.g. '128:256,:,0:64' (start:stop per "
                         "axis, ':' for a whole axis); only intersecting "
                         "segments are read, and the output is byte-"
                         "identical to slicing the full decode; combines "
                         "with --salvage (NaN-fill damage inside the slab)")
    add_codec_opts(sp)
    add_engine_opts(sp)
    add_telemetry_opts(sp)
    sp.set_defaults(fn=cmd_decompress)

    sp = sub.add_parser(
        "info", help="inspect a compressed stream/container (FZGP/FZIN/FZCN)"
    )
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("datasets", help="list the synthetic dataset registry")
    sp.set_defaults(fn=cmd_datasets)

    sp = sub.add_parser("generate", help="write a synthetic field")
    sp.add_argument("dataset")
    sp.add_argument("output")
    sp.add_argument("--field", default=None)
    sp.add_argument("--shape", type=_parse_shape, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("experiment", help="run a paper experiment")
    sp.add_argument("id", choices=[
        "table1", "fig1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "cpu", "engine",
    ])
    sp.set_defaults(fn=cmd_experiment)

    sp = sub.add_parser("throughput", help="query the performance model")
    sp.add_argument("dataset")
    sp.add_argument("--device", default="a100")
    add_codec_opts(sp)
    sp.set_defaults(fn=cmd_throughput)

    sp = sub.add_parser("serve", help="run the compression service (HTTP)")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8591,
                    help="listen port (0 picks an ephemeral port)")
    sp.add_argument("--backend", default=None, metavar="NAME",
                    help="fz-gpu kernel backend (fused/reference/auto)")
    sp.add_argument("--max-inflight", type=int, default=32,
                    help="concurrent engine-bound requests before shedding 429")
    sp.add_argument("--max-connections", type=int, default=256,
                    help="concurrent TCP connections before shedding 503")
    sp.add_argument("--queue-high-water", type=int, default=0, metavar="N",
                    help="engine queue-depth shed mark (default: 8 * jobs)")
    sp.add_argument("--quota-rps", type=float, default=0.0, metavar="R",
                    help="per-client requests/second quota (0 disables)")
    sp.add_argument("--quota-burst", type=float, default=8.0, metavar="B",
                    help="per-client burst allowance when quotas are on")
    sp.add_argument("--max-body-mb", type=float, default=256.0,
                    help="largest accepted request body (413 past this)")
    sp.add_argument("--chunk-mb", type=float, default=None,
                    help="container segment target size in MiB")
    sp.add_argument("--plan", choices=("auto", "fast", "ratio"),
                    default="fast",
                    help="default chunk plan when a request omits plan= "
                         "(forced plans are not wire-selectable)")
    add_engine_opts(sp)
    sp.set_defaults(fn=cmd_serve)

    sp = sub.add_parser("stats", help="summarize an exported trace file")
    sp.add_argument("trace", help="Chrome trace or JSONL file from --trace")
    sp.set_defaults(fn=cmd_stats)

    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    recording = _telemetry_begin(args)
    try:
        return args.fn(args)
    except ReproError as exc:
        # an expected failure (bad input, damaged stream, violated config)
        # is one line on stderr, not a traceback
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if recording:
            _telemetry_end(args)


if __name__ == "__main__":
    sys.exit(main())
