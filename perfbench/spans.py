"""Spans around the program's public entry points, recorded from outside.

`Tracer.install()` replaces each entry point named in `ENTRY_POINTS` with a
wrapper that records one span (name, start, end, parent) in flat arrays kept
in memory until the repetition ends; `uninstall()` puts the originals back.
No source file of the program is touched.  Per-element `FqElem` operations
stay unwrapped (millions of calls), so their time falls into the self time
of the nearest wrapped caller.  The traced repetition runs on one thread,
so one span stack is enough.

A span's self time is its duration minus the durations of its children;
the self times of all spans add up to the time covered by root spans.
"""

import array
import math
import sys
import time

# (layer.metric name, module, owner, attribute); owner None means a module
# function, patched in every drinfeld module that imported it.
ENTRY_POINTS = [
    ("fields.fq", "fields", None, "fq"),
    ("fields.fq.build", "fields", "Fq", "__init__"),
    ("fields.A.mul", "fields", "Poly", "__mul__"),
    ("fields.A.mul", "fields", "Poly", "__rmul__"),
    ("fields.A.divmod", "fields", "Poly", "__divmod__"),
    ("fields.residue", "fields", "AResidue", "__mul__"),
    ("fields.residue", "fields", "AResidue", "__rmul__"),
    ("fields.residue", "fields", "AResidue", "inv"),
    ("fields.residue", "fields", "AResidue", "pth_power"),
    ("fields.residue", "fields", "ResidueRing", "reduce"),
    ("fields.is_irreducible", "fields", None, "is_irreducible"),
    ("fields.wp_valuation", "fields", None, "wp_valuation"),
    ("series.mul", "series", "TruncSeries", "__mul__"),
    ("series.mul", "series", "TruncSeries", "__rmul__"),
    ("series.inv", "series", "TruncSeries", "inv"),
    ("series.substitute", "series", "TruncSeries", "substitute"),
    ("tau.mul", "tau", "TauPoly", "__mul__"),
    ("tau.rdivmod", "tau", "TauPoly", "rdivmod"),
    ("carlitz.phi", "carlitz", None, "carlitz_phi"),
    ("carlitz.torsion", "carlitz", None, "carlitz_torsion_poly"),
    ("carlitz.eisenstein", "carlitz", None, "check_eisenstein"),
    ("carlitz.cyclotomic", "carlitz", None, "carlitz_cyclotomic"),
    ("modules.phi", "modules", "DrinfeldRank2", "phi"),
    ("modules.j", "modules", "DrinfeldRank2", "j_invariant"),
    ("modules.dual", "modules", "DrinfeldRank2", "taguchi_dual"),
    ("modules.wp_factorize", "modules", None, "wp_factorize"),
    ("modules.classify", "modules", None, "classify_reduction"),
    ("sheaves.kernel", "sheaves", None, "kernel_sheaf"),
    ("sheaves.validate", "sheaves", None, "vsheaf_validate"),
    ("sheaves.dual", "sheaves", None, "taguchi_dual_sheaf"),
    ("sheaves.points", "sheaves", None, "dual_points"),
    ("sheaves.htt", "sheaves", None, "htt_evaluate"),
    ("tate.td_instance", "tate", None, "td_instance"),
    ("tate.lattice_inverse", "tate", None, "lattice_inverse"),
    ("tate.build", "tate", "TateDrinfeld", "__init__"),
    ("tate.nu", "tate", "TateDrinfeld", "nu"),
    ("tate.functional_equation", "tate", "TateDrinfeld",
     "functional_equation_residuals"),
    ("tate.descended_j", "tate", "TateDrinfeld", "descended_j"),
    ("tate.canonical_isogeny", "tate", "TateDrinfeld", "canonical_isogeny"),
    ("tate.expp_residuals", "tate", "TateDrinfeld", "expp_residuals"),
    ("tate.verify_tdquot", "tate", "TateDrinfeld", "verify_tdquot"),
    ("tate.rho", "tate", "TateDrinfeld", "rho_tau"),
    ("tate.psi_shape", "tate", "TateDrinfeld", "psi_mod_wp_shape"),
    ("tate.ordinarity", "tate", "TateDrinfeld", "ordinarity"),
    ("tate.ks", "tate", "TateDrinfeld", "ks_factor"),
    ("forms.hasse", "forms", None, "hasse_lift_expansion"),
    ("forms.monomial", "forms", None, "coefficient_monomial"),
    ("forms.reduce", "forms", None, "reduce_mod_wp"),
    ("forms.wp_valuation", "forms", None, "series_wp_valuation"),
    ("forms.depth", "forms", None, "congruence_depth"),
    ("forms.audit", "forms", None, "weight_congruence_audit"),
    ("forms.limit", "forms", None, "padic_limit_sequence"),
    ("forms.mul", "forms", "FormExpansion", "__mul__"),
    ("forms.pow", "forms", "FormExpansion", "pow"),
    ("cli.run_suite", "cli", None, "run_suite"),
]

LAYERS = ("cli", "fields", "series", "tau", "carlitz", "modules", "sheaves",
          "tate", "forms")

JOB_PREFIX = "cli.job."

INCLUSIVE = ("fields.fq.build", "tate.build", "tate.canonical_isogeny",
             "tate.expp_residuals", "tate.verify_tdquot", "forms.hasse",
             "forms.wp_valuation")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array.array("H")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [-1]
        self.counts = {"fields.A.mul.coeff_pairs": 0,
                       "series.mul.coeff_pairs": 0,
                       "series.substitute.horner_steps": 0,
                       "series.substitute.useful_steps": 0,
                       "tate.td_instance.hits": 0}
        self.nu_keys = set()
        self._returned = {}
        self._patched = []

    # -- wrapping -------------------------------------------------------

    def _nid(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, pre=None, post=None):
        nid = self._nid(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self, name):
        counts = self.counts
        if name == "fields.A.mul":
            poly = sys.modules["drinfeld.fields"].Poly

            def pre(args):
                b = args[1]
                counts["fields.A.mul.coeff_pairs"] += len(args[0].coeffs) * (
                    len(b.coeffs) if type(b) is poly else 1)
            return pre, None
        if name == "series.mul":
            ts = sys.modules["drinfeld.series"].TruncSeries

            def pre(args):
                b = args[1]
                counts["series.mul.coeff_pairs"] += len(args[0].coeffs) * (
                    len(b.coeffs) if type(b) is ts else 1)
            return pre, None
        if name == "series.substitute":
            return None, self._count_horner
        if name == "tate.nu":
            return self._count_nu, None
        if name == "tate.td_instance":
            return None, self._count_td
        return None, None

    def _count_horner(self, args, result):
        f, g = args[0], args[1]
        steps = len(f.coeffs)
        gval = g.order() or g.prec
        kmax = math.ceil(result.prec / gval)
        useful = min(max(kmax - f.val, 0), steps)
        self.counts["series.substitute.horner_steps"] += steps
        self.counts["series.substitute.useful_steps"] += useful

    def _count_nu(self, args):
        td, g, s = args[0], args[1], args[2]
        self.nu_keys.add((id(td), g.coeffs, s.val, s.prec, s.coeffs))

    def _count_td(self, args, result):
        if id(result) in self._returned:
            self.counts["tate.td_instance.hits"] += 1
        self._returned[id(result)] = result

    def install(self, handlers):
        modules = {m: sys.modules["drinfeld." + m] for m in LAYERS}
        for name, mod, owner, attr in ENTRY_POINTS:
            pre, post = self._hooks(name)
            if owner is None:
                orig = getattr(modules[mod], attr)
                wrapped = self.wrap(name, orig, pre, post)
                for m in list(sys.modules.values()):
                    if (getattr(m, "__name__", "").startswith("drinfeld")
                            and getattr(m, attr, None) is orig):
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapped)
            else:
                cls = getattr(modules[mod], owner)
                orig = cls.__dict__[attr]
                self._patched.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(name, orig, pre, post))
        for command, fn in list(handlers.items()):
            self._patched.append((handlers, command, fn))
            handlers[command] = self.wrap(JOB_PREFIX + command.replace(" ", "_"), fn)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patched = []

    # -- summary --------------------------------------------------------

    def summary(self, wall_s):
        """Per-layer metrics of one traced repetition that took wall_s."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        nnames = len(self.names)
        calls = [0] * nnames
        self_s = [0.0] * nnames
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += dur[i] - child[i]

        def nid(name):
            return self.name_ids.get(name)

        def count(name):
            i = nid(name)
            return calls[i] if i is not None else 0

        def self_of(name):
            i = nid(name)
            return self_s[i] if i is not None else 0.0

        members = {}
        for name in INCLUSIVE:
            if nid(name) is not None:
                members[nid(name)] = []
        for k in range(n):
            if names[k] in members:
                members[names[k]].append(k)

        def inclusive(name):
            """Time inside outermost spans of `name` (nested ones not twice)."""
            i = nid(name)
            total = 0.0
            for k in members.get(i, ()):
                p = parents[k]
                while p >= 0 and names[p] != i:
                    p = parents[p]
                if p < 0:
                    total += dur[k]
            return total

        def ratio(a, b):
            return a / b if b else 0.0

        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer_self[name.split(".")[0]] += self_s[i]
        jobs = sorted(dur[k] * 1000.0 for k in range(n)
                      if self.names[names[k]].startswith(JOB_PREFIX))

        def rank(p):
            return jobs[min(len(jobs) - 1, math.ceil(p * len(jobs)) - 1)] if jobs else 0.0

        c = self.counts
        m = {
            "cli.jobs": len(jobs),
            "cli.job_p50_ms": rank(0.50),
            "cli.job_p95_ms": rank(0.95),
            "fields.fq.builds": count("fields.fq.build"),
            "fields.fq.build_s": inclusive("fields.fq.build"),
            "fields.A.mul.calls": count("fields.A.mul"),
            "fields.A.mul.coeff_pairs": c["fields.A.mul.coeff_pairs"],
            "fields.A.mul.self_s": self_of("fields.A.mul"),
            "fields.A.divmod.calls": count("fields.A.divmod"),
            "fields.A.divmod.self_s": self_of("fields.A.divmod"),
            "fields.residue.calls": count("fields.residue"),
            "fields.residue.self_s": self_of("fields.residue"),
            "series.mul.calls": count("series.mul"),
            "series.mul.coeff_pairs": c["series.mul.coeff_pairs"],
            "series.mul.self_s": self_of("series.mul"),
            "series.inv.calls": count("series.inv"),
            "series.inv.self_s": self_of("series.inv"),
            "series.substitute.calls": count("series.substitute"),
            "series.substitute.horner_steps": c["series.substitute.horner_steps"],
            "series.substitute.useful_ratio": ratio(
                c["series.substitute.useful_steps"],
                c["series.substitute.horner_steps"]),
            "series.substitute.self_s": self_of("series.substitute"),
            "tau.mul.calls": count("tau.mul"),
            "tau.rdivmod.calls": count("tau.rdivmod"),
            "carlitz.phi.calls": count("carlitz.phi"),
            "modules.phi.calls": count("modules.phi"),
            "sheaves.calls": sum(count(x) for x in self.names
                                 if x.startswith("sheaves.")),
            "tate.build.calls": count("tate.build"),
            "tate.build_s": inclusive("tate.build"),
            "tate.lattice_inverse.calls": count("tate.lattice_inverse"),
            "tate.nu.calls": count("tate.nu"),
            "tate.nu.distinct_ratio": ratio(len(self.nu_keys), count("tate.nu")),
            "tate.canonical_isogeny_s": inclusive("tate.canonical_isogeny"),
            "tate.expp_residuals_s": inclusive("tate.expp_residuals"),
            "tate.verify_tdquot_s": inclusive("tate.verify_tdquot"),
            "tate.td_instance.hit_ratio": ratio(c["tate.td_instance.hits"],
                                                count("tate.td_instance")),
            "forms.audit.calls": count("forms.audit"),
            "forms.hasse_s": inclusive("forms.hasse"),
            "forms.wp_valuation_s": inclusive("forms.wp_valuation"),
            "trace.spans": n,
            "trace.self_coverage": ratio(sum(layer_self.values()), wall_s),
        }
        for layer in LAYERS:
            m[layer + ".self_s"] = layer_self[layer]
        return m
