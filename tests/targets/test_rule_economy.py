"""§3.1.1's rule-economy claim, measured on this very repository.

"If there are k ways for a programmer to write rounding_halving_add and
n backends that implement rounding_halving_add, without
rounding_halving_add in the IR itself, a compiler requires k*n rules...
Instead, FPIR requires only k + n + 1 rules: k patterns that map integer
arithmetic to rounding_halving_add, n mappings ... to the target
instructions, and one efficient lowering for targets that don't support
this operation."
"""

from repro import fpir as F
from repro.fabric.fingerprint import rule_fingerprint
from repro.lifting import HAND_RULES, SYNTHESIZED_RULES
from repro.targets import ALL_TARGETS, TargetOp, shared
from repro.trs.pattern import PConst

#: every rule a builder of ``repro.targets.shared`` writes, by target
SHARED = {
    "x86-avx2": [
        "x86-vpmulhrsw", "x86-q31-mulr-seq",
        "x86-vpackus-predicated", "x86-halving-add-magic",
        "x86-absd-unsigned", "x86-absd-maxmin",
        "x86-rounding-shr-addshift", "x86-rounding-shr-magic",
    ],
    "arm-neon": ["arm-sqrdmulh-16", "arm-sqrdmulh-32"],
    "hexagon-hvx": [
        "hvx-rounding-shr-addshift", "hvx-vmpy-rnd-sat-16",
        "hvx-vmpy-rnd-sat-32", "hvx-vsat-predicated",
        "rake-hvx-vsat-noswizzle",
    ],
    "wasm-simd128": [
        "wasm-q15mulr-sat", "wasm-narrow-u-predicated",
        "wasm-halving-add-magic",
        "wasm-absd-unsigned", "wasm-absd-maxmin",
        "wasm-rounding-shr-addshift", "wasm-rounding-shr-magic",
    ],
    "riscv-rvv": [
        "rvv-vsmul-8", "rvv-vsmul-16", "rvv-vsmul-32", "rvv-absd-maxmin",
    ],
    "powerpc-vsx": [
        "ppc-vpksus-predicated", "ppc-halving-add-magic", "ppc-absd-maxmin",
        "ppc-rounding-shr-addshift", "ppc-rounding-shr-magic",
    ],
}


def _rules_producing(cls):
    """Lifting rules whose RHS introduces the given FPIR instruction."""
    out = []
    for r in HAND_RULES + SYNTHESIZED_RULES:
        if any(isinstance(n, cls) for n in r.rhs.walk()):
            out.append(r)
    return out


def _rules_consuming(cls, target):
    """Lowering rules whose LHS roots at the given FPIR instruction."""
    return [
        r for r in target.lowering_rules if isinstance(r.lhs, cls)
    ]


class TestRuleEconomy:
    def test_rounding_halving_add_is_k_plus_n_plus_1(self):
        k_rules = _rules_producing(F.RoundingHalvingAdd)
        k = len(k_rules)
        assert k >= 2  # the div and shr spellings at least

        n = 0
        emulated = 0
        for target in ALL_TARGETS.values():
            direct = _rules_consuming(F.RoundingHalvingAdd, target)
            if direct:
                n += len(direct)
            else:
                emulated += 1
        # every backend either maps it directly or falls back to the ONE
        # definitional expansion (no per-backend emulation rules needed:
        # rounding_halving_add is supported natively on all six)
        total = k + n + emulated
        # the k*n direct-translation alternative would need:
        naive = k * len(ALL_TARGETS)
        assert total < naive

    def test_halving_add_shares_one_emulation_per_backend_class(self):
        """halving_add is native on ARM/HVX/RVV and magic-emulated on the
        x86-like backends — the §3.1.1 example."""
        native, magic = [], []
        for name, target in ALL_TARGETS.items():
            direct = _rules_consuming(F.HalvingAdd, target)
            if direct and not any("magic" in r.name for r in direct):
                native.append(name)
            elif any("magic" in r.name for r in direct):
                magic.append(name)
        assert set(native) >= {"arm-neon", "hexagon-hvx", "riscv-rvv"}
        assert set(magic) >= {"x86-avx2", "wasm-simd128", "powerpc-vsx"}

    def test_every_backend_covers_every_fpir_op(self):
        """Totality: every FPIR instruction either has a lowering rule on
        a backend or is covered by definitional expansion — proven by
        compiling one instance of each op everywhere."""
        from repro.interp import evaluate
        from repro.ir import builders as h
        from repro.pipeline import pitchfork_compile
        from tests.fpir.test_expansion import _sample_node

        env = {
            "a": [3, 200], "b": [250, 7],
            "x": [-32768, 1000], "y": [32767, -3],
            "w": [4080, 65535],
        }
        for cls in F.FPIR_OPS.values():
            node = _sample_node(cls)
            ref = evaluate(node, env, lanes=2)
            for target in ALL_TARGETS.values():
                prog = pitchfork_compile(node, target)
                assert prog.run(env) == ref, (cls.name, target.name)


def _builds(rule):
    """What each builder of ``shared`` gives for ``rule``'s name, prefix
    and instruction: a rule with the same shape is a copy of one."""
    prefix = rule.name.split("-")[0]
    yield shared.halving_add_magic(prefix)
    yield shared.absd_unsigned(prefix)
    yield shared.absd_maxmin(prefix)
    yield shared.rounding_shr_magic(prefix)
    for bits in (32, 64):
        yield shared.rounding_shr_addshift(prefix, max_bits=bits)
    if isinstance(rule.rhs, TargetOp):
        yield shared.predicated_narrow(rule.name, rule.rhs.spec, rule.source)
        for bits in (8, 16, 32, 64):
            yield shared.q_format_mul(rule.name, rule.rhs.spec, bits)


def _code(rule):
    """The code objects of a rule's predicate and computed constants."""
    fns = [rule.predicate] if rule.predicate is not None else []
    fns += [n.value for side in (rule.lhs, rule.rhs) for n in side.walk()
            if isinstance(n, PConst) and callable(n.value)]
    return [fn.__code__ for fn in fns]


class TestSharedRules:
    """§3.1.1's "one efficient lowering for targets that don't support
    this operation": each rule shape several targets use is written once,
    in ``repro.targets.shared``."""

    def test_every_copy_is_built_by_its_builder(self):
        built = {}
        for name, target in ALL_TARGETS.items():
            for rule in target.lowering_rules + target.rake_extra_rules:
                same = [b for b in _builds(rule)
                        if rule_fingerprint(b) == rule_fingerprint(rule)]
                if same:
                    built.setdefault(name, []).append(rule.name)
                # a pasted copy hashes the same but has its own code
                for b in same:
                    assert len(_code(rule)) == len(_code(b))
                    assert all(c is d for c, d in
                               zip(_code(rule), _code(b))), rule.name
        assert built == SHARED
