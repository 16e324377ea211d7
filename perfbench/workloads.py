"""The four workloads: their inputs, the CLI cases of one pass, and the
checks on what a pass wrote.

A case is one image through one filter. ``denoise`` runs one case per
command; ``sweep-depth`` and ``bench-brainweb`` run many cases in one
command and report each as a CSV row.

How the seed varies the inputs. The number of EM iterations, and with it
the work of a tree build, swings with the exact pixel values: on the seed
commit a fresh noise draw moved sweep EM work by 15-27% and a fresh
phantom moved a depth-7 denoise by about 30%. Seeds would then measure
different amounts of work. So:

- ``mkf-deep`` and ``mkf-wide``: the seed picks one of the eight
  rotations/reflections of a fixed noisy phantom. The tree, the EM fits
  and the filter see the same values in another layout, so the work is
  the same and the outputs are the same up to float rounding.
- ``sweep``: the CLI adds the noise itself, so a rotated input would meet
  unrotated noise. The image and the noise are fixed; the seed picks the
  order in which the (size, level) cells run.
- ``baselines``: TV, CF and the bilateral window do a fixed amount of
  work per pixel, so the seed picks the slices and the noise freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mkfilter import bench, phantoms
from mkfilter.metrics import mae, ssim
from mkfilter.noise import NoiseSpec, PhaseSpec, apply_noise, synthesize_complex_slice
from mkfilter.raster import Raster, load_f64_raster, load_pgm, save_f64_raster, save_pgm

PHANTOM_SEED = 3      # fixed phantom content, see the module docstring
NOISE_SEED = 11
LEVEL = 1000.0        # integral noise variance for the denoise workloads


@dataclass
class Inputs:
    """What set-up wrote plus what the checks need to judge the outputs."""

    in_dir: Path
    clean: dict = field(default_factory=dict)      # image id -> Raster
    noisy_mae: dict = field(default_factory=dict)  # case or cell -> MAE before filtering
    extra: dict = field(default_factory=dict)


def dihedral(values: np.ndarray, k: int) -> np.ndarray:
    """One of the eight rotations/reflections of a square grid."""
    out = np.rot90(values, k % 4)
    return np.ascontiguousarray(out.T if k % 8 >= 4 else out)


def _finite(x: float) -> bool:
    return isinstance(x, float) and math.isfinite(x)


class MkfDenoise:
    """``denoise --filter mkf`` over integral-noise MKFR inputs."""

    def __init__(self, name, images, depth):
        self.name = name
        self.images = images  # (id, phantom function, size)
        self.depth = depth

    def make_inputs(self, seed: int, in_dir: Path) -> Inputs:
        inputs = Inputs(in_dir)
        for i, (image_id, make, size) in enumerate(self.images):
            clean = make(size, size, seed=PHANTOM_SEED)
            noisy = apply_noise(clean, NoiseSpec("integral", LEVEL, NOISE_SEED + i))
            clean = Raster(dihedral(clean.data, seed), range_hint=clean.range_hint)
            noisy = Raster(dihedral(noisy.data, seed), range_hint=noisy.range_hint)
            save_f64_raster(noisy, in_dir / f"{image_id}.mkfr")
            inputs.clean[image_id] = clean
            inputs.noisy_mae[image_id] = mae(clean, noisy)
        return inputs

    def commands(self, inputs: Inputs, out_dir: Path) -> list[tuple[str, list[str]]]:
        return [(image_id, ["denoise", str(inputs.in_dir / f"{image_id}.mkfr"),
                            str(out_dir / f"{image_id}.mkfr"), "--filter", "mkf",
                            "--depth", str(self.depth)])
                for image_id, _, _ in self.images]

    def case_ids(self, inputs: Inputs, command_id: str) -> list[str]:
        return [command_id]

    def check(self, inputs: Inputs, out_dir: Path) -> dict:
        """Per case: (mae, ssim) or a problem string."""
        results = {}
        for image_id, clean in inputs.clean.items():
            try:
                out = load_f64_raster(out_dir / f"{image_id}.mkfr")
            except (OSError, ValueError) as exc:  # FormatError, non-finite data
                results[image_id] = f"unreadable output: {exc}"
                continue
            if out.data.shape != clean.data.shape:
                results[image_id] = f"output shape {out.data.shape} != {clean.data.shape}"
                continue
            score = (mae(clean, out), ssim(clean, out, 255.0))
            if not score[0] < inputs.noisy_mae[image_id]:
                results[image_id] = (f"restored MAE {score[0]:.4f} not below noisy "
                                     f"MAE {inputs.noisy_mae[image_id]:.4f}")
                continue
            results[image_id] = score
        return results


class Sweep:
    """``sweep-depth`` over one 8-bit PGM: all six depths per (size, level)
    cell, two cluster sizes, two noise levels. A pass runs one command per
    cell, so that each command is short (see ``run.py`` on speed samples);
    the six depths of a cell share its noise realization and tree prefixes
    inside one command, as in a full sweep."""

    name = "sweep"
    SIZE = 24
    DEPTHS = range(2, 8)
    SIZES = (20, 100)
    LEVELS = (10.0, 1000.0)
    IMAGE_ID = "bsd"
    MASTER_SEED = 0

    def make_inputs(self, seed: int, in_dir: Path) -> Inputs:
        inputs = Inputs(in_dir)
        path = in_dir / f"{self.IMAGE_ID}.pgm"
        save_pgm(phantoms.bsd_style(self.SIZE, self.SIZE, seed=PHANTOM_SEED), path)
        clean = load_pgm(path)
        for level in self.LEVELS:
            noise = NoiseSpec("integral", level,
                              bench.derive_seed(self.MASTER_SEED, self.IMAGE_ID, int(level)))
            inputs.noisy_mae[level] = mae(clean, apply_noise(clean, noise))
        # a restored image must beat the flat image at the clean mean
        flat = clean.with_data(np.full_like(clean.data, clean.data.mean()))
        inputs.extra["flat_mae"] = mae(clean, flat)
        sizes = list(self.SIZES)[::-1 if seed % 2 else 1]
        levels = list(self.LEVELS)[::-1 if (seed // 2) % 2 else 1]
        inputs.extra["cells"] = [(size, level) for level in levels for size in sizes]
        return inputs

    def _cell_id(self, size, level):
        return f"max_cluster={size},level={level:g}"

    def commands(self, inputs, out_dir):
        return [(self._cell_id(size, level),
                 ["sweep-depth", str(inputs.in_dir / f"{self.IMAGE_ID}.pgm"),
                  "--depths", f"{self.DEPTHS.start}:{self.DEPTHS.stop - 1}:1",
                  "--sizes", str(size), "--levels", f"{level:g}",
                  "--seed", str(self.MASTER_SEED),
                  "--out-dir", str(out_dir / self._cell_id(size, level))])
                for size, level in inputs.extra["cells"]]

    def _case_id(self, depth, size, level):
        return f"depth={depth},max_cluster={size},level={level:g}"

    def case_ids(self, inputs, command_id):
        return [self._case_id(d, s, v) for s, v in inputs.extra["cells"]
                if self._cell_id(s, v) == command_id for d in self.DEPTHS]

    def check(self, inputs, out_dir):
        """Rows are matched to cases by their provenance columns. Restored
        MAE must be below noisy MAE at level 1000; at level 10 the seed
        commit's MKF raises MAE above the noisy input's (2.3 to 4-12), so
        those rows must only beat the flat image."""
        results = {}
        for size, level in inputs.extra["cells"]:
            cell = self._cell_id(size, level)
            expected = set(self.case_ids(inputs, cell))
            try:
                rows = bench.read_rows_csv(out_dir / cell / "sweep_depth.csv")
            except (OSError, ValueError) as exc:
                results.update({case: f"unreadable CSV: {exc}" for case in expected})
                continue
            for row in rows:
                params = dict(item.split("=") for item in row.params.split(","))
                row_level = float(row.noise.partition("level=")[2])
                case = self._case_id(int(params["depth"]), int(params["max_cluster"]),
                                     row_level)
                if case not in expected or case in results:
                    results[case] = f"unexpected or repeated row {row}"
                elif not (_finite(row.mae) and _finite(row.ssim)):
                    results[case] = f"non-finite scores {row.mae}, {row.ssim}"
                elif level == 1000.0 and not row.mae < inputs.noisy_mae[level]:
                    results[case] = (f"restored MAE {row.mae:.4f} not below noisy "
                                     f"MAE {inputs.noisy_mae[level]:.4f}")
                elif not row.mae < inputs.extra["flat_mae"]:
                    results[case] = f"restored MAE {row.mae:.4f} not below flat-image MAE"
                else:
                    results[case] = (row.mae, row.ssim)
            for case in expected - results.keys():
                results[case] = "row missing"
        return results


class Baselines:
    """``bench-brainweb`` with the bilateral window, TV and CF over four
    spatial-field-noise MKFR slices, plus its SVG charts."""

    name = "baselines"
    SIZE = 128
    SLICES = 4
    FILTERS = ("bf:hi=57,radius=5", "tv", "cf")
    PEAK = 500.0  # the CLI's default --peak, which the command leaves alone

    def make_inputs(self, seed, in_dir):
        inputs = Inputs(in_dir)
        vol = in_dir / "volume"
        vol.mkdir()
        first = seed % 8
        for i in range(self.SLICES):
            slice_id = f"slice_{i:02d}"
            save_f64_raster(phantoms.brain_slice(self.SIZE, self.SIZE, first + i),
                            vol / f"{slice_id}.mkfr")
            # as the CLI sees it: range hint from the data
            magnitude = load_f64_raster(vol / f"{slice_id}.mkfr")
            pair = synthesize_complex_slice(magnitude, PhaseSpec(slice_index=i))
            for component, clean in (("real", pair.real), ("imag", pair.imag)):
                noise = NoiseSpec("spatial-field", self.PEAK,
                                  bench.derive_seed(seed, slice_id, component))
                inputs.noisy_mae[(slice_id, component)] = mae(clean, apply_noise(clean, noise))
        inputs.extra["seed"] = seed
        return inputs

    def commands(self, inputs, out_dir):
        return [("brainweb", ["bench-brainweb", str(inputs.in_dir / "volume"),
                              "--filters", *self.FILTERS,
                              "--seed", str(inputs.extra["seed"]),
                              "--out-dir", str(out_dir)])]

    def _case_id(self, slice_id, component, name):
        return f"{slice_id}/{component}/{name}"

    def case_ids(self, inputs, command_id):
        return [self._case_id(s, c, f.partition(":")[0])
                for (s, c) in inputs.noisy_mae for f in self.FILTERS]

    def check(self, inputs, out_dir):
        expected = set(self.case_ids(inputs, "brainweb"))
        results = {}
        try:
            rows = bench.read_rows_csv(out_dir / "brainweb.csv")
        except (OSError, ValueError) as exc:
            return {case: f"unreadable CSV: {exc}" for case in expected}
        charts_ok = all(
            (out_dir / f"brainweb_{m}.svg").is_file()
            and (out_dir / f"brainweb_{m}.svg").read_text(encoding="utf-8").startswith("<svg")
            for m in ("mae", "ssim"))
        for row in rows:
            case = self._case_id(row.image, row.component, row.filter)
            noisy = inputs.noisy_mae.get((row.image, row.component))
            if case not in expected or case in results:
                results[case] = f"unexpected or repeated row {row}"
            elif not (_finite(row.mae) and _finite(row.ssim)):
                results[case] = f"non-finite scores {row.mae}, {row.ssim}"
            elif not row.mae < noisy:
                results[case] = f"restored MAE {row.mae:.4f} not below noisy MAE {noisy:.4f}"
            elif not charts_ok:
                results[case] = "SVG chart missing or malformed"
            else:
                results[case] = (row.mae, row.ssim)
        for case in expected - results.keys():
            results[case] = "row missing"
        return results


WORKLOADS = {
    w.name: w for w in (
        # 40 px keeps each command short, so the speed samples on either
        # side of it track the machine; EM work barely shrinks with size
        MkfDenoise(
            "mkf-deep",
            [("bsd_style", phantoms.bsd_style, 40),
             ("piecewise_mosaic", phantoms.piecewise_mosaic, 40)],
            depth=7),
        MkfDenoise(
            "mkf-wide",
            [("bsd_style", phantoms.bsd_style, 256)],
            depth=2),
        Sweep(),
        Baselines(),
    )
}
