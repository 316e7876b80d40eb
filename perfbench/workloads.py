"""The three benchmark workloads.

Each is a closed loop with one client: the next pass starts when the last
one has returned. A workload makes the inputs of pass `index` from the seed
and that index alone (untimed), runs the pass (timed), and checks its
outputs (untimed). qlab is reached only through `qlab.<name>` and
`qlab.cli.main`, looked up at call time, so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass

import numpy as np

import fixtures
import qlab
import qlab.cli


@dataclass
class PassResult:
    failed_ops: set  # names of operations that raised or gave a wrong output
    output: bytes  # every byte the pass produced, for the run digest


class CliFiles:
    """Nine `qlab` subcommands, in-process, on freshly generated files."""

    name = "cli_files"
    COUNTS = (4, 4, 4, 4)
    STATE_COUNTS = (2,) * 12
    PERMUTATION = (2, 1, 4, 3)
    SAMPLE_COUNT = 100000
    ops_per_pass = 9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.last_input = None

    def make_input(self, index: int) -> dict:
        rng = fixtures.rng_for(self.seed, index)
        matrix = fixtures.mixed_matrix(rng, int(np.prod(self.COUNTS)), terms=3)
        state = fixtures.unit_vector(rng, int(np.prod(self.STATE_COUNTS)))
        texts = {
            "arr.ea": fixtures.arrangement_text(self.COUNTS, matrix),
            "state.qs": fixtures.state_text(self.STATE_COUNTS, state),
        }
        for path, text in texts.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return {"matrix": matrix, "texts": texts, "sample_seed": int(rng.integers(2**31))}

    def fixture_record(self, inp: dict) -> list[dict]:
        return [
            {"file": "arr.ea", "N": int(np.prod(self.COUNTS)), "records": int(np.count_nonzero(inp["matrix"])),
             "bytes": len(inp["texts"]["arr.ea"].encode())},
            {"file": "state.qs", "N": int(np.prod(self.STATE_COUNTS)), "records": int(np.prod(self.STATE_COUNTS)),
             "bytes": len(inp["texts"]["state.qs"].encode())},
        ]

    def commands(self, inp: dict) -> list[list[str]]:
        order = ",".join(map(str, self.PERMUTATION))
        return [
            ["validate", "--in", "arr.ea"],
            ["potentia", "--in", "arr.ea"],
            ["remove-screen", "--in", "arr.ea", "--out", "removed.ea", "--screen", "4"],
            ["change-basis", "--in", "arr.ea", "--out", "moved.ea", "--permute-screens", order],
            ["product-test", "--in", "arr.ea", "--left", "1,3"],
            ["sample", "--in", "arr.ea", "--count", str(self.SAMPLE_COUNT), "--seed", str(inp["sample_seed"])],
            ["render", "--in", "arr.ea", "--out", "render.svg", "--labels"],
            ["schmidt", "--state", "state.qs", "--left", "1,2,3,4,5,6"],
            ["separability", "--state", "state.qs"],
        ]

    @staticmethod
    def cli(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qlab.cli.main(argv)
            except SystemExit as e:  # argparse rejects argv this way
                code = e.code if isinstance(e.code, int) else 1
        return code, out.getvalue()

    def run(self, inp: dict, rec) -> list[tuple[str, int, str]]:
        results = []
        for argv in self.commands(inp):
            with rec.span("cli." + argv[0]):
                code, stdout = self.cli(argv)
            results.append((argv[0], code, stdout))
        return results

    def check(self, inp: dict, results) -> PassResult:
        self.last_input = inp
        failed = {name for name, code, _ in results if code != 0}
        files = {}
        for path in ("removed.ea", "moved.ea", "render.svg"):
            with open(path, "rb") as fh:
                files[path] = fh.read()
        try:
            reduced = qlab.parse_arrangement(files["removed.ea"].decode())
            if reduced.shape.detector_counts != self.COUNTS[:3]:
                failed.add("remove-screen")
        except qlab.QLabError:
            failed.add("remove-screen")
        moved = fixtures.permute_screens(inp["matrix"], self.COUNTS, self.PERMUTATION)
        if files["moved.ea"] != fixtures.arrangement_text(self.COUNTS, moved).encode():
            failed.add("change-basis")
        stdout = {name: text for name, _, text in results}
        drawn = sum(int(c) for c in re.findall(r"^count\[[^\]]*\]=(\d+)$", stdout["sample"], re.M))
        if drawn != self.SAMPLE_COUNT:
            failed.add("sample")
        ea = qlab.ExperimentalArrangement(qlab.DenseOperatorTensor(qlab.ScreenConfiguration(self.COUNTS), inp["matrix"]))
        if files["render.svg"] != qlab.render_arrangement_svg(ea, qlab.RenderOptions(show_labels=True)).encode():
            failed.add("render")
        output = b"".join(text.encode() for _, _, text in results) + b"".join(files.values())
        return PassResult(failed, output)

    def finish(self) -> PassResult:
        """Applying the permutation again must give back the last input's bytes."""
        order = ",".join(map(str, self.PERMUTATION))
        code, stdout = self.cli(["change-basis", "--in", "moved.ea", "--out", "back.ea", "--permute-screens", order])
        with open("back.ea", "rb") as fh:
            back = fh.read()
        ok = code == 0 and back == self.last_input["texts"]["arr.ea"].encode()
        return PassResult(set() if ok else {"change-basis-twice"}, stdout.encode() + back)


class LinalgLarge:
    """Dense library calls on ten two-detector screens (N = 1024)."""

    name = "linalg_large"
    COUNTS = (2,) * 10
    ops_per_pass = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, index: int) -> dict:
        rng = fixtures.rng_for(self.seed, index)
        return {k: int(rng.integers(2**63)) for k in ("arrangement", "unitary", "projectors")}

    def fixture_record(self, inp: dict) -> list[dict]:
        return [{"array": "arrangement", "N": 2 ** len(self.COUNTS), "records": 4 ** len(self.COUNTS), "bytes": 16 * 4 ** len(self.COUNTS)}]

    def run(self, inp: dict, rec) -> dict:
        shape = qlab.ScreenConfiguration(self.COUNTS)
        ea = qlab.random_arrangement(shape, inp["arrangement"], terms=2)
        bt = qlab.BasisTransformation.random(shape, inp["unitary"])
        moved = qlab.change_basis(ea, bt)
        reduced = qlab.remove_screen(moved, 1)
        extended = qlab.extend_arrangement(reduced, 2)
        k = extended.shape.num_screens
        product = qlab.is_product_across(extended, qlab.Bipartition.split((k,), k))
        invariance = qlab.verify_basis_invariance(ea, bt, seed=inp["projectors"])
        purity = qlab.purity_operational(ea)
        return {"reduced": reduced.shape.detector_counts, "extended": extended.shape.detector_counts,
                "product": product, "invariance": invariance, "purity": purity}

    def check(self, inp: dict, out: dict) -> PassResult:
        failed = set()
        if out["reduced"] != self.COUNTS[1:]:
            failed.add("remove_screen")
        if out["extended"] != self.COUNTS:
            failed.add("extend_arrangement")
        if out["product"][0] is not True:
            failed.add("is_product_across")
        if not out["invariance"].passed:
            failed.add("verify_basis_invariance")
        top = out["purity"].max_eigenvalue
        if not 0.5 - 1e-9 <= top <= 1.0 + 1e-9:
            failed.add("purity_operational")
        return PassResult(failed, repr(out).encode())


class ManySmall:
    """Every library entry point on five small configurations."""

    name = "many_small"
    SHAPES = ((2, 2), (2, 3), (2, 2, 2, 2), (3, 3, 2), (2,) * 6)
    SAMPLE_COUNT = 1000
    ops_per_pass = 16 * len(SHAPES)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, index: int) -> list[dict]:
        inputs = []
        for j, counts in enumerate(self.SHAPES):
            rng = fixtures.rng_for(self.seed, index, j)
            n = int(np.prod(counts))
            inputs.append({
                "counts": counts,
                "state": fixtures.unit_vector(rng, n),
                "product_state": fixtures.product_vector(rng, counts),
                "family": fixtures.orthogonal_family(rng, n, parts=3),
                "seeds": [int(s) for s in rng.integers(2**63, size=3)],
            })
        return inputs

    def fixture_record(self, inp: list[dict]) -> list[dict]:
        return [{"array": "state", "N": int(np.prod(c["counts"])), "records": int(np.prod(c["counts"])),
                 "bytes": c["state"].nbytes} for c in inp]

    def run(self, inp: list[dict], rec) -> list[dict]:
        return [self._one(case) for case in inp]

    @staticmethod
    def _one(case: dict) -> dict:
        counts = case["counts"]
        arrangement_seed, sample_seed, trial_seed = case["seeds"]
        shape = qlab.ScreenConfiguration(counts)
        pure = qlab.build_from_state_vector(case["state"], shape)
        mixed = qlab.random_arrangement(shape, arrangement_seed, terms=3)
        validity = qlab.validate_isa(mixed)
        table = mixed.potentia_table()
        purity = qlab.purity_abstract(pure)
        order = tuple(range(len(counts), 0, -1))
        bt = qlab.BasisTransformation.screen_permutation(shape, order)
        moved = qlab.change_basis(mixed, bt)
        reduced = qlab.remove_screen(mixed, 1)
        extended = qlab.extend_arrangement(reduced, 2)
        profile = qlab.schmidt_rank_profile(case["state"], shape)
        separable = qlab.is_fully_separable_pure(case["product_state"], shape)[0]
        k = extended.shape.num_screens
        product = qlab.is_product_across(extended, qlab.Bipartition.split((k,), k))
        drawn = qlab.sample_outcomes(mixed, ManySmall.SAMPLE_COUNT, sample_seed)
        svg = qlab.render_arrangement_svg(mixed)
        factorization = qlab.verify_factorization_invariance(mixed, 2, trials=3, seed=trial_seed)
        family = [qlab.GeneralProjector.from_matrix(p, shape) for p in case["family"]]
        additivity = qlab.verify_additivity(qlab.GlobalIntensiveValuation(mixed), family)
        return {"pure": pure, "mixed": mixed, "order": order, "bt": bt, "validity": validity, "table": table,
                "purity": purity, "moved": moved, "reduced": reduced, "extended": extended,
                "profile": profile, "separable": separable, "product": product, "drawn": drawn,
                "svg": svg, "factorization": factorization, "additivity": additivity}

    def check(self, inp: list[dict], outs: list[dict]) -> PassResult:
        failed = set()
        digest = []
        for case, out in zip(inp, outs):
            counts = case["counts"]
            entries = out["mixed"].alpha.entries
            expect = {
                "build_from_state_vector": np.array_equal(out["pure"].alpha.entries, np.outer(case["state"], case["state"].conj())),
                "random_arrangement": out["mixed"].shape.detector_counts == counts,
                "validate_isa": out["validity"].valid,
                "potentia_table": abs(float(out["table"].sum()) - 1.0) <= 1e-9,
                "purity_abstract": out["purity"].is_pure and abs(out["purity"].value - 1.0) <= 1e-9,
                "screen_permutation": out["bt"].target_shape.detector_counts == tuple(counts[p - 1] for p in out["order"]),
                "change_basis": np.array_equal(out["moved"].alpha.entries, fixtures.permute_screens(entries, counts, out["order"])),
                "remove_screen": out["reduced"].shape.detector_counts == counts[1:],
                "extend_arrangement": out["extended"].shape.detector_counts == counts[1:] + (2,),
                "schmidt_rank_profile": all(
                    rank == min(int(np.prod([counts[p - 1] for p in cut.left])), int(np.prod([counts[p - 1] for p in cut.right])))
                    for cut, rank in out["profile"].items()
                ) and len(out["profile"]) == 2 ** (len(counts) - 1) - 1,
                "is_fully_separable_pure": out["separable"] is True,
                "is_product_across": out["product"][0] is True,
                "sample_outcomes": sum(out["drawn"].values()) == self.SAMPLE_COUNT,
                "render_arrangement_svg": out["svg"] == qlab.render_arrangement_svg(out["mixed"]),
                "verify_factorization_invariance": out["factorization"].passed,
                "verify_additivity": out["additivity"].passed,
            }
            failed |= {f"{op}{list(counts)}" for op, ok in expect.items() if not ok}
            digest.append(repr((out["validity"], out["purity"], sorted(out["drawn"].items()), out["product"],
                                out["factorization"], out["additivity"], [out["profile"][c] for c in sorted(out["profile"], key=str)])))
            digest.append(out["svg"])
        return PassResult(failed, "".join(digest).encode())


WORKLOADS = {w.name: w for w in (CliFiles, LinalgLarge, ManySmall)}


def tiny_fixture(seed: int) -> dict:
    """Write tiny.ea, the (2, 2) file each cold `python -m qlab` start reads; return its fixture record."""
    matrix = fixtures.mixed_matrix(fixtures.rng_for(seed, 2**32), 4, terms=2)
    text = fixtures.arrangement_text((2, 2), matrix)
    with open("tiny.ea", "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"file": "tiny.ea", "N": 4, "records": int(np.count_nonzero(matrix)), "bytes": len(text.encode())}
