"""Regenerate the golden outputs that test_golden.py holds the program to.

    PYTHONPATH=src python tests/make_goldens.py

Each scene goes through the command line as a user would run it: `synth`
from a config file, `track` on the synth outputs, and `eval --tsv` at IoU
0.5 and 0.3; some of the `synth` files are kept too. One scene adds seeded
noise to the synth embeddings before `track`. The line branch's case
is `lineops` on frame 1 of a 64x64 synth scene. The files land in
tests/golden/. Regenerate them only for a change that is meant to alter
outputs, and say in CHANGES.md why they changed.
"""
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from sartrack import cli

GOLDEN_DIR = Path(__file__).with_name("golden")

# Synth config text of each scene; one file feeds both the scenario and the
# perturbation, so they share the seed.
SCENES = {
    # The scenario of test_acceptance.test_pipeline_determinism.
    "determinism": ("seed = 42\nframes = 30\nn_moving = 5\nwidth = 128\nheight = 128\n"
                    "jitter_sigma = 0.1\np_fn = 0.1\nlambda_fp = 0.5\n"),
    "seed7": ("seed = 7\nframes = 120\nn_moving = 20\n"
              "jitter_sigma = 0.1\np_fn = 0.1\nlambda_fp = 0.5\n"),
    # test_acceptance's ablation scene: fast targets whose looks flip, so the
    # motion gate changes the result (`--maa on` and `off` differ here).
    "ablation": ("seed = 1\nframes = 50\nn_moving = 10\nn_static_occluders = 0\n"
                 "width = 110\nheight = 110\nspeed_min = 1.0\nspeed_max = 4.0\n"
                 "size_min = 8\nsize_max = 14\nappearance_flip_speed = 3.0\np_toggle = 0.3\n"
                 "noise_amplitude = 0.0\njitter_sigma = 0.15\np_fn = 0.2\nlambda_fp = 0.5\n"),
}
# The ablation scene with noisy looks. Synth looks are clean one-hot vectors,
# so mixing a matched detection's look into a track's appearance EMA changes
# nothing; with noise it changes the result.
SCENES["noisy-emb"] = SCENES["ablation"]
# (sigma, seed) of the Gaussian noise added to each emb.txt vector before `track`.
EMB_NOISE = {"noisy-emb": (0.7, 5)}
# `--maa` modes kept per scene. The other two scenes give the same files
# both ways, so only the ablation scene can tell the modes apart.
MAA_MODES = {"determinism": ("on",), "seed7": ("on",), "ablation": ("on", "off"),
             "noisy-emb": ("on",)}
# `synth` outputs kept per scene, so motion, toggles, flipped looks and the
# velocity column are held directly and not only through what `track` makes
# of them. The seed-7 scene's would be large.
SYNTH_FILES = {"determinism": ("gt.txt", "det.txt", "emb.txt"), "seed7": (),
               "ablation": ("gt.txt", "det.txt", "emb.txt", "000050.pgm"), "noisy-emb": ()}

LINEOPS_SCENE = "seed = 1\nframes = 1\nn_moving = 2\nwidth = 64\nheight = 64\n"
LINEOPS_FRAME = "lineops.frame.pgm"
LINEOPS_TENSORS = ("a_soft.vsfm", "fused.vsfm")


def run_cli(*argv) -> str:
    """Run one sartrack command in process and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code:
        raise RuntimeError(f"sartrack {argv[0]} exited with {code}")
    return out.getvalue()


def synth(config_text, workdir: Path) -> Path:
    """Write a synth config under workdir, run `synth` on it and return the
    scene directory."""
    cfg = workdir / "scenario.txt"
    cfg.write_text(config_text)
    run_cli("synth", "--config", cfg, "--out-dir", workdir / "scene")
    return workdir / "scene"


def add_embedding_noise(emb: Path, sigma: float, seed: int) -> None:
    """Add seeded Gaussian noise to every vector of an emb.txt, in place."""
    rng = np.random.default_rng(seed)
    lines = []
    for line in emb.read_text().splitlines():
        frame, index, *vec = line.split()
        noisy = np.array(vec, dtype=float) + rng.normal(0.0, sigma, len(vec))
        lines.append(" ".join([frame, index, *map(repr, noisy.tolist())]))
    emb.write_text("\n".join(lines) + "\n")


def track(scene: Path, out: Path, *flags) -> bytes:
    run_cli("track", "--det", scene / "det.txt", "--emb", scene / "emb.txt",
            "--cmc", scene / "cmc.txt", "--out", out, *flags)
    return out.read_bytes()


def scene_outputs(name, workdir: Path) -> dict[str, bytes]:
    """The golden files of one scene, by file name."""
    scene = synth(SCENES[name], workdir)
    if name in EMB_NOISE:
        add_embedding_noise(scene / "emb.txt", *EMB_NOISE[name])
    out = {f"{name}.{f}": (scene / f).read_bytes() for f in SYNTH_FILES[name]}
    for maa in MAA_MODES[name]:
        res = workdir / f"res-maa-{maa}.txt"
        out[f"{name}.res-maa-{maa}.txt"] = track(scene, res, "--maa", maa)
        for iou in ("0.5", "0.3"):
            out[f"{name}.eval-maa-{maa}-iou{iou}.tsv"] = run_cli(
                "eval", "--gt", scene / "gt.txt", "--res", res, "--iou", iou, "--tsv").encode()
    return out


def lineops_frame(workdir: Path) -> bytes:
    return (synth(LINEOPS_SCENE, workdir) / "000001.pgm").read_bytes()


def lineops_outputs(frame: Path, workdir: Path) -> Path:
    """Run `lineops` on one frame; returns the directory holding its tensors."""
    run_cli("lineops", "--in", frame, "--out", workdir / "lineops")
    return workdir / "lineops"


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name in SCENES:
            (tmp / name).mkdir()
            files.update(scene_outputs(name, tmp / name))
        (tmp / "lineops").mkdir()
        files[LINEOPS_FRAME] = lineops_frame(tmp / "lineops")
        (tmp / LINEOPS_FRAME).write_bytes(files[LINEOPS_FRAME])
        tensors = lineops_outputs(tmp / LINEOPS_FRAME, tmp / "lineops")
        for t in LINEOPS_TENSORS:
            files[f"lineops.{t}"] = (tensors / t).read_bytes()
        for fname, data in sorted(files.items()):
            (GOLDEN_DIR / fname).write_bytes(data)
            print(f"wrote {GOLDEN_DIR / fname} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
