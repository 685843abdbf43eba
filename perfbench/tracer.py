"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper that records
a span (name, start, end, parent, op id, info) in memory.  A function
imported elsewhere with ``from .x import f`` is a separate binding, so
every ``singulens`` module holding the original object is patched, not
only the defining one; methods are patched on their class.  Names that a
later version of the library no longer has are skipped, and their
metrics read 0.

``per_layer`` turns the spans of one traced pass into the metrics named
in ``PER_LAYER``.  Self time is a span's duration minus its children's.
A Groebner basis request is a fill the first time a given ideal object
asks for a given order within an op, and a cache hit after that; a fill
repeats an earlier one of the same op when the generators and the order
are the same.  The tracer holds every ideal an op touched until the op
ends, so object ids are not reused while they key that bookkeeping.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name) of traced module-level functions.
FUNCTIONS = (
    ("polyring", "parse", "polyring.parse"),
    ("ideals", "local_colength", "ideals.local_colength"),
    ("invariants", "milnor_number", "invariants.milnor_number"),
    ("invariants", "tjurina_number", "invariants.tjurina_number"),
    ("invariants", "is_quasi_homogeneous", "invariants.is_quasi_homogeneous"),
    ("invariants", "find_weights", "invariants.find_weights"),
    ("sections", "jk_ideal", "sections.jk_ideal"),
    ("sections", "generation_descent", "sections.generation_descent"),
    ("genus", "classify", "genus.classify"),
    ("genus", "compute_genus", "genus.compute_genus"),
    ("analyzer", "screen_isolated", "analyzer.screen_isolated"),
    ("analyzer", "equality_certificate", "analyzer.equality_certificate"),
    ("analyzer", "analyze", "analyzer.analyze"),
    ("analyzer", "counterexample_suite", "analyzer.counterexample_suite"),
)

# (module, class, method, span name) of traced methods.
METHODS = (
    ("ideals", "Ideal", "groebner_basis", "ideals.groebner_basis"),
    ("ideals", "Ideal", "normal_form", "ideals.normal_form"),
    ("ideals", "Ideal", "local_member", "ideals.local_member"),
    ("ideals", "Ideal", "quotient", "ideals.quotient"),
    ("sections", "DescentChain", "replay", "sections.DescentChain.replay"),
)

CERT_SPAN = "analyzer.cert"

# Every per-layer metric the traced run reports: (name, unit, better).
PER_LAYER = (
    ("ideals.groebner_basis.calls", "count", "lower"),
    ("ideals.groebner_basis.fills", "count", "lower"),
    ("ideals.groebner_basis.self_s", "s", "lower"),
    ("ideals.groebner_basis.basis_len_max", "count", "lower"),
    ("ideals.groebner_basis.coeff_bits_max", "bits", "lower"),
    ("ideals.groebner_basis.repeat_fills", "count", "lower"),
    ("ideals.fill_useful_ratio", "ratio", "higher"),
    ("ideals.local_colength.calls", "count", "lower"),
    ("ideals.local_colength.self_s", "s", "lower"),
    ("ideals.local_colength.refused", "count", "lower"),
    ("ideals.quotient.calls", "count", "lower"),
    ("ideals.quotient.self_s", "s", "lower"),
    ("ideals.local_member.calls", "count", "lower"),
    ("ideals.local_member.via_quotient", "count", "lower"),
    ("ideals.local_member.self_s", "s", "lower"),
    ("ideals.normal_form.calls", "count", "lower"),
    ("ideals.normal_form.self_s", "s", "lower"),
    ("sections.jk_ideal.calls", "count", "lower"),
    ("sections.jk_ideal.self_s", "s", "lower"),
    ("sections.jk_ideal.gens_max", "count", "lower"),
    ("analyzer.equality.level0.s", "s", "lower"),
    ("analyzer.equality.level1.s", "s", "lower"),
    ("analyzer.equality.level2.s", "s", "lower"),
    ("analyzer.equality.level3.s", "s", "lower"),
    ("sections.generation_descent.s", "s", "lower"),
    ("sections.descent.steps", "count", "lower"),
    ("sections.DescentChain.replay.s", "s", "lower"),
    ("invariants.milnor_number.s", "s", "lower"),
    ("invariants.milnor_number.calls", "count", "lower"),
    ("invariants.tjurina_number.s", "s", "lower"),
    ("invariants.is_quasi_homogeneous.s", "s", "lower"),
    ("invariants.find_weights.s", "s", "lower"),
    ("genus.classify.s", "s", "lower"),
    ("genus.compute_genus.s", "s", "lower"),
    ("analyzer.screen_isolated.s", "s", "lower"),
    ("analyzer.equality_certificate.s", "s", "lower"),
    ("analyzer.analyze.self_s", "s", "lower"),
    *((f"analyzer.cert.C{i}.s", "s", "lower") for i in range(1, 8)),
    ("polyring.parse.calls", "count", "lower"),
    ("polyring.parse.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._held: list = []
        self._filled: set = set()
        self._filled_content: set = set()
        self._level_of: dict[int, int] = {}

    # -- recording --------------------------------------------------------

    def start_op(self, op) -> None:
        self.op = op
        self._stack.clear()
        self._held.clear()
        self._filled.clear()
        self._filled_content.clear()
        self._level_of.clear()

    def end_op(self) -> None:
        self.start_op(None)

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = before(args, kwargs) if before is not None else {}
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                info["error"] = type(err).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(rec, info, result)
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _gb_before(self, default_order):
        def before(args, kwargs):
            ideal = args[0]
            order = args[1] if len(args) > 1 else kwargs.get("order", default_order)
            key = (id(ideal), getattr(order, "name", str(order)))
            if key in self._filled:
                return {}
            self._filled.add(key)
            self._held.append(ideal)
            content = (ideal.ring.names, ideal.generators, key[1])
            repeat = content in self._filled_content
            self._filled_content.add(content)
            return {"fill": True, "repeat": repeat}

        return before

    @staticmethod
    def _gb_after(rec, info, result):
        if info.get("fill"):
            info["basis"] = result

    def _member_before(self, args, kwargs):
        return {"level": self._level_of.get(id(args[0]))}

    def _jk_before(self, args, kwargs):
        return {"k": args[2] if len(args) > 2 else kwargs.get("k")}

    def _jk_after(self, rec, info, result):
        self._held.append(result)
        self._level_of[id(result)] = info["k"]
        info["gens"] = len(result.generators)

    @staticmethod
    def _descent_after(rec, info, result):
        info["steps"] = len(result)

    @staticmethod
    def _cert_after(rec, info, result):
        rec[NAME] = f"{CERT_SPAN}.{result.name}"

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name the loaded library has."""
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("singulens.") and mod is not None
        }
        package = sys.modules["singulens"]
        everywhere = [package, *mods.values()]
        for modname, fname, span in FUNCTIONS:
            original = getattr(mods.get(modname), fname, None)
            if original is None:
                continue
            before = after = None
            if span == "sections.jk_ideal":
                before, after = self._jk_before, self._jk_after
            elif span == "sections.generation_descent":
                after = self._descent_after
            wrapper = self._wrap(span, original, before, after)
            for mod in everywhere:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for modname, cname, meth, span in METHODS:
            cls = getattr(mods.get(modname), cname, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                continue
            before = after = None
            if span == "ideals.groebner_basis":
                defaults = original.__defaults__ or (None,)
                before, after = self._gb_before(defaults[0]), self._gb_after
            elif span == "ideals.local_member":
                before = self._member_before
            self._patch(cls, meth, self._wrap(span, original, before, after))
        analyzer = mods.get("analyzer")
        builders = getattr(analyzer, "_CERTIFICATE_BUILDERS", None)
        if builders is not None:
            wrapped = tuple(
                self._wrap(CERT_SPAN, b, after=self._cert_after) for b in builders
            )
            self._patch(analyzer, "_CERTIFICATE_BUILDERS", wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _bits(basis) -> int:
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for p in basis
            for _, c in p.items()
        ),
        default=0,
    )


def per_layer(spans: list[list], skip_ops: set) -> dict[str, float]:
    """Per-layer metrics of the spans whose op is not in ``skip_ops``.

    Returns every span-derived name of ``PER_LAYER`` (missing ones are 0);
    the run adds the metrics measured outside spans.
    """
    m: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]

    def has_ancestor(rec, name) -> bool:
        i = rec[PARENT]
        while i >= 0:
            if spans[i][NAME] == name:
                return True
            i = spans[i][PARENT]
        return False

    fills = repeats = 0
    for idx, rec in enumerate(spans):
        if rec[OP] in skip_ops:
            continue
        name, info = rec[NAME], rec[INFO]
        dur = rec[END] - rec[START]
        for key, value in (
            (f"{name}.calls", 1),
            (f"{name}.self_s", dur - child_s[idx]),
        ):
            if key in m:
                m[key] += value
        if f"{name}.s" in m and not has_ancestor(rec, name):
            m[f"{name}.s"] += dur
        if name == "ideals.groebner_basis" and info.get("fill"):
            fills += 1
            repeats += info["repeat"]
            if "basis" in info:
                basis = info["basis"]
                m["ideals.groebner_basis.basis_len_max"] = max(
                    m["ideals.groebner_basis.basis_len_max"], len(basis)
                )
                m["ideals.groebner_basis.coeff_bits_max"] = max(
                    m["ideals.groebner_basis.coeff_bits_max"], _bits(basis)
                )
        elif name == "ideals.local_colength" and "error" in info:
            m["ideals.local_colength.refused"] += 1
        elif name == "ideals.quotient" and rec[PARENT] >= 0:
            if spans[rec[PARENT]][NAME] == "ideals.local_member":
                m["ideals.local_member.via_quotient"] += 1
        elif name == "sections.jk_ideal" and "gens" in info:
            m["sections.jk_ideal.gens_max"] = max(
                m["sections.jk_ideal.gens_max"], info["gens"]
            )
        elif name == "sections.generation_descent" and "steps" in info:
            m["sections.descent.steps"] += info["steps"]
        if name in ("sections.jk_ideal", "ideals.local_member"):
            level = info.get("k" if name == "sections.jk_ideal" else "level")
            key = f"analyzer.equality.level{level}.s"
            if key in m and has_ancestor(rec, "analyzer.equality_certificate"):
                m[key] += dur
    m["ideals.groebner_basis.fills"] = fills
    m["ideals.groebner_basis.repeat_fills"] = repeats
    m["ideals.fill_useful_ratio"] = (fills - repeats) / fills if fills else 0.0
    return m


def op_counts(spans: list[list], name: str) -> dict:
    """Number of spans called ``name`` in each op."""
    out: dict = {}
    for rec in spans:
        if rec[NAME] == name:
            out[rec[OP]] = out.get(rec[OP], 0) + 1
    return out


def dump(spans: list[list], path) -> None:
    """Write the spans as JSON lines: name, start, end, parent, op."""
    import json

    with open(path, "w") as out:
        for rec in spans:
            out.write(json.dumps(rec[:INFO]) + "\n")
