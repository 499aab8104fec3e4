"""Command-line interface.

Data goes to files or standard output, diagnostics to standard error.
Exit codes: 0 success, 1 failed check or validation, 2 bad input. Every
randomized command requires an explicit seed, either as a flag or as a field
of its config file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import csscode, gf2, harness, iqp
from .colex import ColexParseError, validate_colex
from .surgery import build_tetrahelix, export_chain, import_chain


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_chain(path):
    try:
        return import_chain(path)
    except (ColexParseError, FileNotFoundError, OSError) as e:
        raise SystemExit(_exit_input(f"cannot read chain file {path}: {e}"))


def _exit_input(msg: str) -> int:
    _err(msg)
    return 2


# ---------------------------------------------------------------------------
# code subcommands
# ---------------------------------------------------------------------------


def cmd_code_build(args) -> int:
    try:
        chain = build_tetrahelix(args.k, args.L)
    except Exception as e:
        return _exit_input(f"build failed: {e}")
    export_chain(chain, args.out)
    _err(f"wrote {args.out}: [[{chain.code.n},1]] {args.k}-tetrahelix, L={args.L}")
    return 0


def cmd_code_check(args) -> int:
    chain = _load_chain(args.infile)
    ok = True
    rep = validate_colex(chain.block.colex)
    if not rep.passed:
        ok = False
        for name, off in rep.failures():
            _err(f"block: FAILED {name}: offenders {off}")
    if not chain.code.check_commutation():
        ok = False
        _err("chain check matrices do not commute")
    k_log = csscode.logical_count(chain.code)
    if k_log != 1:
        ok = False
        _err(f"chain logical count is {k_log}, expected 1")
    if ok:
        _err("all checks passed")
        return 0
    return 1


def cmd_code_distance(args) -> int:
    chain = _load_chain(args.infile)
    try:
        res = csscode.distance(chain.code, args.basis, cap=args.cap)
    except gf2.SearchBudgetExceeded as e:
        return _exit_input(str(e))
    if res.found:
        print(f"d_{args.basis} = {res.weight}")
    else:
        print(f"d_{args.basis} >= {res.weight_lower_bound}")
    return 0


def cmd_code_t_partition(args) -> int:
    chain = _load_chain(args.infile)
    code = chain.block.code
    try:
        tp = csscode.find_t_partition(code)
    except csscode.EnumerationTooLarge as e:
        return _exit_input(str(e))
    if tp is None:
        _err("no candidate partition passed (not a nonexistence proof)")
        return 1
    rep = csscode.check_diagonal_transversality(code, tp)
    print(
        json.dumps(
            {
                "v_plus": gf2.to_bits(tp.v_plus, code.n),
                "induced_logical": rep.gate,
                "residue": rep.residue,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# iqp subcommands
# ---------------------------------------------------------------------------


def cmd_iqp_gen(args) -> int:
    c = iqp.sample_circuit(args.n, args.gamma, args.seed)
    iqp.export_circuit(c, args.out)
    _err(f"wrote {args.out}: {len(c.cs_exponents)} CS gates")
    return 0


def cmd_iqp_simulate(args) -> int:
    c = iqp.import_circuit(args.infile)
    try:
        dist = iqp.exact_distribution(c)
    except iqp.ResourceCapExceeded as e:
        return _exit_input(str(e))
    iqp.export_distribution(dist, args.out)
    _err(f"wrote {args.out}")
    return 0


def cmd_iqp_compile(args) -> int:
    c = iqp.import_circuit(args.infile)
    layout = iqp.compile_parallel(c)
    Path(args.out).write_text(
        json.dumps(
            {
                "n": layout.n,
                "k": layout.k,
                "wires": layout.wires,
                "t_gates": [list(g) for g in layout.t_gates],
                "cs_gates": [list(g) for g in layout.cs_gates],
            },
            indent=1,
        )
    )
    _err(f"wrote {args.out}: depth {layout.k}, {layout.wires} wires")
    return 0


def cmd_iqp_check_zero(args) -> int:
    c = iqp.import_circuit(args.infile)
    try:
        p_sum = iqp.prob_zero(c)
        p_vec = float(iqp.exact_distribution(c).probs[0])
    except iqp.ResourceCapExceeded as e:
        return _exit_input(str(e))
    gap = abs(p_sum - p_vec)
    print(f"prob_zero = {p_sum:.12g}  statevector = {p_vec:.12g}  gap = {gap:.3g}")
    return 0 if gap <= 1e-9 else 1


# ---------------------------------------------------------------------------
# Monte Carlo subcommands
# ---------------------------------------------------------------------------


def cmd_mc(args) -> int:
    if args.workers is not None and args.workers < 1:
        return _exit_input(f"--workers must be >= 1, got {args.workers}")
    cfg = harness.ExperimentConfig.from_file(args.config)
    workers = cfg.workers if args.workers is None else args.workers
    if args.what == "prep":
        rows = []
        for L in cfg.Ls:
            row = harness.prep_scan(L, cfg.noise_model(), cfg.trials, cfg.seed, workers)
            rows.append(row)
            _err(
                f"L={L}: tetra_nc={row.tetra_rate:.3g} {row.tetra_ci}, "
                f"merge_nc={row.merge_rate:.3g} {row.merge_ci}"
            )
        out = args.out or "prep.json"
        Path(out).write_text(
            json.dumps([row.__dict__ for row in rows], indent=1, default=list)
        )
        _err(f"wrote {out}")
        return 0
    if args.what == "pipeline":
        est = harness.logical_error_rate(
            cfg.L,
            cfg.k,
            cfg.noise_model(),
            cfg.trials,
            cfg.seed,
            workers=workers,
            trace_path=args.trace,
        )
        print(
            f"L={est.L} k={est.k} eps={est.epsilon}: rate={est.rate:.6g} "
            f"[{est.ci_low:.6g}, {est.ci_high:.6g}] ({est.failures}/{est.trials})"
        )
        return 0
    if args.what == "scan":
        res = harness.threshold_scan(
            cfg.Ls,
            cfg.ks,
            cfg.epsilons,
            cfg.trials,
            cfg.seed,
            workers=workers,
            noise=cfg.noise_model(),
        )
        out = args.out or "scan.csv"
        res.to_csv(out)
        if res.crossing:
            _err(f"crossing: {res.crossing}")
        else:
            _err("no crossing inside the scanned range")
        _err(f"wrote {out}")
        return 0
    return _exit_input(f"unknown mc subcommand {args.what}")


def cmd_e2e(args) -> int:
    cfg = harness.ExperimentConfig.from_file(args.config)
    res = harness.end_to_end(cfg)
    harness.write_tv_csv(args.out or "tv.csv", [res])
    print(
        f"N={res.n} eps={res.epsilon}: TV={res.tv:.4g} [{res.ci_low:.4g}, {res.ci_high:.4g}] "
        f"eps_bar={res.eps_bar:.4g} depth={res.depth}"
    )
    return 0


def cmd_plan(args) -> int:
    try:
        plan = harness.overhead(
            args.n, args.delta, args.eps, args.eps_th,
            c_k=args.c_k, c_l=args.c_l, c_r=args.c_r,
        )
    except ValueError as e:
        return _exit_input(str(e))
    print(json.dumps(plan.__dict__, indent=1))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tetriqp")
    sub = p.add_subparsers(dest="command", required=True)

    code = sub.add_parser("code", help="build and inspect codes")
    csub = code.add_subparsers(dest="sub", required=True)
    b = csub.add_parser("build", help="build a k-tetrahelix code")
    b.add_argument("--L", type=int, required=True)
    b.add_argument("--k", type=int, default=1)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_code_build)
    c = csub.add_parser("check", help="validate a chain file")
    c.add_argument("--in", dest="infile", required=True)
    c.set_defaults(func=cmd_code_check)
    d = csub.add_parser("distance", help="weight-bounded distance search")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--basis", choices=("X", "Z"), required=True)
    d.add_argument("--cap", type=int, default=8)
    d.set_defaults(func=cmd_code_distance)
    tp = csub.add_parser("t-partition", help="search a transversal-T partition")
    tp.add_argument("--in", dest="infile", required=True)
    tp.set_defaults(func=cmd_code_t_partition)

    iq = sub.add_parser("iqp", help="sparse IQP circuits")
    isub = iq.add_subparsers(dest="sub", required=True)
    g = isub.add_parser("gen", help="sample a sparse IQP circuit")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--gamma", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_iqp_gen)
    s = isub.add_parser("simulate", help="exact output distribution")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_iqp_simulate)
    cp = isub.add_parser("compile-parallel", help="depth-1 GHZ compilation")
    cp.add_argument("--in", dest="infile", required=True)
    cp.add_argument("--out", required=True)
    cp.set_defaults(func=cmd_iqp_compile)
    cz = isub.add_parser("check-zero", help="exponential-sum identity check")
    cz.add_argument("--in", dest="infile", required=True)
    cz.set_defaults(func=cmd_iqp_check_zero)

    mc = sub.add_parser("mc", help="Monte Carlo experiments")
    mc.add_argument("what", choices=("prep", "pipeline", "scan"))
    mc.add_argument("--config", required=True)
    mc.add_argument("--out")
    mc.add_argument("--workers", type=int)
    mc.add_argument("--trace", help="write per-trial decoder trace (JSON lines)")
    mc.set_defaults(func=cmd_mc)

    e2 = sub.add_parser("e2e", help="end-to-end TV experiment")
    e2.add_argument("--config", required=True)
    e2.add_argument("--out")
    e2.set_defaults(func=cmd_e2e)

    pl = sub.add_parser("plan", help="overhead calculator")
    psub = pl.add_subparsers(dest="sub", required=True)
    ov = psub.add_parser("overhead")
    ov.add_argument("--n", type=int, required=True)
    ov.add_argument("--delta", type=float, required=True)
    ov.add_argument("--eps", type=float, required=True)
    ov.add_argument("--eps-th", type=float, required=True)
    ov.add_argument("--c-k", type=float, default=1.0)
    ov.add_argument("--c-l", type=float, default=1.0)
    ov.add_argument("--c-r", type=float, default=1.0)
    ov.set_defaults(func=cmd_plan)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except ColexParseError as e:
        return _exit_input(str(e))
    except (FileNotFoundError, OSError, json.JSONDecodeError, ValueError) as e:
        return _exit_input(str(e))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
