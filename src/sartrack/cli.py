"""Command-line entry point binding all modules into pipelines.

Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import assoc, lfa, lineops, metrics, synthsim
from . import io as sio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _require_file(path):
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    return path


def cmd_track(args) -> int:
    records = sio.parse_mot_file(_require_file(args.det))
    embeddings = sio.parse_embeddings(_require_file(args.emb)) if args.emb else None
    cmc = sio.parse_cmc_file(_require_file(args.cmc)) if args.cmc else None
    cfg = assoc.TrackerConfig()
    if args.config:
        (cfg,) = sio.load_config(_require_file(args.config), assoc.TrackerConfig)
    if args.maa == "off":  # a gate at 0 fires on every pair: appearance never counts
        cfg = dataclasses.replace(cfg, tau_v=0.0)
    dets = sio.records_to_detections(records, embeddings)
    tset = assoc.track_sequence(dets, cmc, cfg)
    sio.write_mot_file(tset, args.out)
    print(f"wrote {tset.num_boxes()} boxes over {len(tset)} tracks to {args.out}")
    return EXIT_OK


_EVAL_COLUMNS = ("MOTA", "IDSW", "MT", "ML", "IDF1", "IDR", "IDP", "HOTA", "DetA", "AssA")


def cmd_eval(args) -> int:
    gt = sio.records_to_trajectories(sio.parse_mot_file(_require_file(args.gt)))
    pred = sio.records_to_trajectories(sio.parse_mot_file(_require_file(args.res)))
    if gt.num_boxes() == 0:
        raise DataError(f"{args.gt}: empty ground truth")
    gt_frames = gt.frames()
    extra = [f for f in pred.frames() if f < gt_frames[0] or f > gt_frames[-1]]
    if extra:
        shown = ", ".join(map(str, extra[:5])) + (", ..." if len(extra) > 5 else "")
        raise DataError(
            f"{args.res}: {len(extra)} frame(s) [{shown}] fall outside the range "
            f"[{gt_frames[0]}, {gt_frames[-1]}] of {args.gt}")
    rep = metrics.evaluate(gt, pred, args.iou)
    values = [f"{rep.mota:.3f}", str(rep.idsw), str(rep.mt), str(rep.ml),
              f"{rep.idf1:.3f}", f"{rep.idr:.3f}", f"{rep.idp:.3f}",
              f"{rep.hota:.3f}", f"{rep.deta:.3f}", f"{rep.assa:.3f}"]
    if args.tsv:
        print("\t".join(_EVAL_COLUMNS))
        print("\t".join(values))
    else:
        widths = [max(len(c), len(v)) for c, v in zip(_EVAL_COLUMNS, values)]
        print("  ".join(c.rjust(w) for c, w in zip(_EVAL_COLUMNS, widths)))
        print("  ".join(v.rjust(w) for v, w in zip(values, widths)))
    return EXIT_OK


def cmd_synth(args) -> int:
    scn, pert = sio.load_config(_require_file(args.config),
                                synthsim.ScenarioConfig, synthsim.PerturbConfig)
    if pert.clutter_size_max > min(scn.width, scn.height):
        raise DataError(f"{args.config}: clutter_size_max {pert.clutter_size_max} does not fit "
                        f"the {scn.width}x{scn.height} canvas")
    scene = synthsim.generate_scene(scn)
    dets = synthsim.perturb_detections(scene, pert)
    sio.write_scene(scene, dets, args.out_dir)
    print(f"wrote scenario ({scn.frames} frames, {scn.n_moving} targets) to {args.out_dir}")
    return EXIT_OK


def cmd_lineops(args) -> int:
    path = _require_file(args.infile)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == sio.TENSOR_MAGIC:
        x = sio.read_tensor(path)
    else:
        x = sio.read_pgm(path).astype(float)[:, :, None] / 255.0
    z, a_soft = lineops.lffm(x, args.theta, args.rho, args.tau)
    os.makedirs(args.out, exist_ok=True)
    sio.write_tensor(a_soft, os.path.join(args.out, "a_soft.vsfm"))
    sio.write_tensor(z, os.path.join(args.out, "fused.vsfm"))
    sio.write_pgm(sio.to_uint8(a_soft[:, :, 0]), os.path.join(args.out, "a_soft.pgm"))
    print(f"wrote a_soft.vsfm, fused.vsfm, a_soft.pgm to {args.out}")
    return EXIT_OK


def cmd_lfa_demo(args) -> int:
    a_soft = sio.read_tensor(_require_file(args.asoft))
    props = sio.parse_proposals(_require_file(args.proposals))
    h, w = a_soft.shape[:2]
    cfg = lfa.LfaConfig(image_w=w if args.width is None else args.width,
                        image_h=h if args.height is None else args.height,
                        lambda_max=args.lambda_max)
    enhanced = []
    for line_no, p in props:
        try:
            enhanced.append(lfa.enhance_proposal(p, a_soft, cfg))
        except ValueError as e:
            raise sio.ParseError(args.proposals, line_no, e) from None
    with open(args.out, "w") as fh:
        for en in enhanced:
            b = en.bbox
            feat = " ".join(repr(float(v)) for v in en.feature)
            fh.write(f"{b.x} {b.y} {b.w} {b.h} {en.v_hat} {feat}\n")
    print(f"wrote {len(props)} enhanced proposals to {args.out}")
    return EXIT_OK


def cmd_render(args) -> int:
    tset = sio.records_to_trajectories(sio.parse_mot_file(_require_file(args.tracks)))
    by_frame = tset.boxes_by_frame()
    stems = sorted(n[:-4] for n in os.listdir(args.frames_dir) if n.endswith(".pgm"))
    if not stems:
        raise DataError(f"no .pgm frames in {args.frames_dir}")
    for stem in stems:
        if not stem.isdecimal():
            raise DataError(f"{os.path.join(args.frames_dir, stem + '.pgm')}: frame files "
                            f"must be named by frame number, like 000001.pgm")
    frames = [sio.read_pgm(os.path.join(args.frames_dir, stem + ".pgm")) for stem in stems]
    os.makedirs(args.out_dir, exist_ok=True)
    for stem, frame in zip(stems, frames):
        sio.render_frame(frame, by_frame.get(int(stem), []),
                         os.path.join(args.out_dir, stem + ".ppm"))
    print(f"rendered {len(stems)} frames to {args.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sartrack",
                description="Shadow-based multi-object tracking toolkit for video SAR")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("track", help="associate detections into trajectories")
    t.add_argument("--det", required=True, help="detection file (MOT CSV)")
    t.add_argument("--out", required=True, help="output trajectory file")
    t.add_argument("--emb", help="embedding sidecar file")
    t.add_argument("--cmc", help="camera-motion sidecar file")
    t.add_argument("--config", help="tracker config (key = value lines)")
    t.add_argument("--maa", choices=["on", "off"], default="on",
                   help="motion-aware appearance gating (default on); off means tau_v = 0")
    t.set_defaults(func=cmd_track)

    e = sub.add_parser("eval", help="score a result file against ground truth")
    e.add_argument("--gt", required=True, help="ground-truth file (MOT CSV)")
    e.add_argument("--res", required=True, help="result file (MOT CSV)")
    e.add_argument("--iou", type=float, default=0.5, help="IoU threshold (default 0.5)")
    e.add_argument("--tsv", action="store_true", help="tab-separated output")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="generate a synthetic scenario")
    s.add_argument("--config", required=True, help="scenario config file")
    s.add_argument("--out-dir", required=True, help="output directory")
    s.set_defaults(func=cmd_synth)

    lo = sub.add_parser("lineops", help="line-feature enhancement of one map")
    lo.add_argument("--in", dest="infile", required=True,
                    help="input PGM image or raw tensor file")
    lo.add_argument("--out", required=True, help="output directory")
    lo.add_argument("--theta", type=int, default=None, help="angle bins")
    lo.add_argument("--rho", type=int, default=None, help="rho bins")
    lo.add_argument("--tau", type=float, default=None, help="noise threshold")
    lo.set_defaults(func=cmd_lineops)

    ld = sub.add_parser("lfa-demo", help="enhance proposals with pooled line features")
    ld.add_argument("--asoft", required=True, help="line-intensity tensor file")
    ld.add_argument("--proposals", required=True, help="proposal text file")
    ld.add_argument("--out", required=True, help="enhanced proposal output file")
    ld.add_argument("--lambda-max", type=float, default=0.4)
    ld.add_argument("--width", type=float, default=None, help="image width (default map width)")
    ld.add_argument("--height", type=float, default=None, help="image height (default map height)")
    ld.set_defaults(func=cmd_lfa_demo)

    r = sub.add_parser("render", help="overlay tracks on frames")
    r.add_argument("--frames-dir", required=True, help="directory of PGM frames")
    r.add_argument("--tracks", required=True, help="trajectory file (MOT CSV)")
    r.add_argument("--out-dir", required=True, help="output directory for PPM frames")
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (DataError, sio.ParseError, ValueError, OSError) as e:
        print(f"sartrack: error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
