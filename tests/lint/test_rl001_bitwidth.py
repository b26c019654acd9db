"""RL001 bit-width contracts: one failing and one clean fixture per rule."""

from repro.lint import lint_text
from repro.lint.checkers.rl001_bitwidth import BitWidthContracts, fold_int


def findings(source, subpath="core/fixture.py"):
    return lint_text(source, [BitWidthContracts()], subpath=subpath)


class TestFoldInt:
    def test_folds_literal_expressions(self):
        import ast

        def fold(text):
            return fold_int(ast.parse(text, mode="eval").body)

        assert fold("(1 << 56) - 1") == (1 << 56) - 1
        assert fold("0xFF") == 0xFF
        assert fold("-3") == -3
        assert fold("8 * 8") == 64

    def test_rejects_non_constant(self):
        import ast

        assert fold_int(ast.parse("x + 1", mode="eval").body) is None
        assert fold_int(ast.parse("1.5", mode="eval").body) is None


class TestConstantDrift:
    def test_flags_drifted_copy(self):
        out = findings("MAC_BITS = 48\n")
        assert len(out) == 1
        assert out[0].code == "RL001"
        assert "MAC_BITS" in out[0].message and "56" in out[0].message

    def test_accepts_faithful_copy(self):
        assert findings("MAC_BITS = 56\n_BLOCK_BYTES = 64\n") == []

    def test_uncontracted_names_pass(self):
        assert findings("MY_TUNABLE = 48\n") == []


class TestMasks:
    def test_flags_wrong_width_mask_on_contracted_identifier(self):
        out = findings("low = tag & 0xFF\n")
        assert len(out) == 1
        assert "56 bits" in out[0].message

    def test_flags_uncontracted_wide_mask(self):
        # Hex spelling so only the mask rule (not the shift rule) fires.
        out = findings("x = value & 0x1FFF\n")
        assert len(out) == 1
        assert "13" in out[0].message

    def test_shifted_mask_spelling_flags_both(self):
        # (1 << 13) - 1 trips the mask rule and the inner shift rule.
        out = findings("x = value & ((1 << 13) - 1)\n")
        assert len(out) == 2

    def test_accepts_contracted_mask(self):
        assert findings("x = tag & ((1 << 56) - 1)\n") == []

    def test_accepts_machine_width_mask(self):
        assert findings("x = word & ((1 << 64) - 1)\n") == []

    def test_bit_test_is_not_a_mask(self):
        # 0x80 is not all-ones: a single-bit probe, always legal.
        assert findings("x = flags & 0x80\n") == []


class TestShiftsModuliBytes:
    def test_flags_uncontracted_shift(self):
        out = findings("x = value >> 30\n")
        assert len(out) == 1
        assert "30" in out[0].message

    def test_accepts_contracted_and_small_shifts(self):
        assert findings("x = (tag << 56) | (value >> 3)\n") == []

    def test_flags_uncontracted_modulus(self):
        out = findings("x = address % 100\n")
        assert len(out) == 1
        assert "100" in out[0].message

    def test_accepts_group_modulus(self):
        assert findings("x = block % 64\ny = block // 4096\n") == []

    def test_flags_uncontracted_byte_width(self):
        out = findings('b = value.to_bytes(5, "little")\n')
        assert len(out) == 1
        assert "40 bits" in out[0].message

    def test_accepts_contracted_byte_widths(self):
        source = (
            'a = mac.to_bytes(7, "little")\n'
            'b = addr.to_bytes(6, "little")\n'
            'c = word.to_bytes(8, "little")\n'
        )
        assert findings(source) == []


class TestScoping:
    def test_only_contracted_packages_are_checked(self):
        bad = "MAC_BITS = 48\nx = value >> 30\n"
        assert findings(bad, subpath="analysis/fixture.py") == []
        assert len(findings(bad, subpath="ecc/fixture.py")) == 2
        assert len(findings(bad, subpath="crypto/fixture.py")) == 2
