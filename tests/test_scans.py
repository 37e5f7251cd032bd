"""Scan-order generators against nested-loop enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cassi_ssm import scans
from oracles import spectral_scan_order


def local_order_loop_oracle(height, width, patch):
    """Literal four-level loop enumeration of the patch-local order."""
    out = []
    for pr in range(0, height, patch):
        for pc in range(0, width, patch):
            for r in range(pr, pr + patch):
                for x in range(pc, pc + patch):
                    out.append(r * width + x)
    return np.array(out)


def cross_order_loop_oracle(height, width, channels, patch, cube):
    """Literal enumeration matching the documented cross-cube nesting."""
    ch, cw, cd = cube
    plane = height * width
    out = []
    for pr in range(0, height, patch):
        for pc in range(0, width, patch):
            for b0 in range(0, channels, cd):
                for cr in range(pr, pr + patch, ch):
                    for cc in range(pc, pc + patch, cw):
                        for r in range(cr, cr + ch):
                            for x in range(cc, cc + cw):
                                for b in range(b0, b0 + cd):
                                    out.append(b * plane + r * width + x)
    return np.array(out)


class TestGlobalOrder:
    def test_forward(self):
        assert scans.global_order(2, 3).forward.tolist() == [0, 1, 2, 3, 4, 5]

    def test_reverse(self):
        assert scans.global_order(2, 3, reverse=True).forward.tolist() == [5, 4, 3, 2, 1, 0]

    def test_forward_reverse_composition_is_reversal(self):
        fwd = scans.global_order(3, 4)
        rev = scans.global_order(3, 4, reverse=True)
        composed = fwd.forward[rev.forward]
        assert composed.tolist() == list(range(11, -1, -1))


class TestLocalPatchOrder:
    def test_enumerated_fixture(self):
        got = scans.local_patch_order(4, 4, 2).forward.tolist()
        assert got == [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
        assert got == local_order_loop_oracle(4, 4, 2).tolist()

    @pytest.mark.parametrize("h,w,p", [(4, 8, 2), (8, 8, 4), (6, 6, 3)])
    def test_matches_loop_oracle(self, h, w, p):
        assert scans.local_patch_order(h, w, p).forward.tolist() == \
            local_order_loop_oracle(h, w, p).tolist()

    def test_single_patch_equals_global(self):
        assert np.array_equal(scans.local_patch_order(4, 4, 4).forward,
                              scans.global_order(4, 4).forward)

    def test_unit_patches_equal_global(self):
        assert np.array_equal(scans.local_patch_order(3, 5, 1).forward,
                              scans.global_order(3, 5).forward)
        assert np.array_equal(scans.local_patch_order(3, 5, 1, reverse=True).forward,
                              scans.global_order(3, 5, reverse=True).forward)

    @pytest.mark.parametrize("h,w,p", [(-4, 4, 2), (0, 4, 2), (4, 0, 2), (4, 4, 0)])
    def test_dims_below_one_rejected(self, h, w, p):
        with pytest.raises(ValueError, match="must be >= 1"):
            scans.local_patch_order(h, w, p)

    def test_divisibility_error_names_dims(self):
        with pytest.raises(ValueError) as err:
            scans.local_patch_order(6, 4, 4)
        msg = str(err.value)
        assert "4" in msg and "6" in msg


class TestCrossCubeOrder:
    def test_enumerated_fixture(self):
        patch, cube = 2, (1, 2, 2)
        got = scans.cross_cube_order(2, 2, 2, patch, cube).forward.tolist()
        assert got == [0, 4, 1, 5, 2, 6, 3, 7]
        assert got == cross_order_loop_oracle(2, 2, 2, patch, cube).tolist()

    # spec is (patch, cube)
    @pytest.mark.parametrize("h,w,c,spec", [
        (4, 4, 4, (4, (2, 2, 2))),
        (8, 4, 2, (4, (2, 2, 2))),
        (4, 4, 8, (2, (1, 2, 4))),
        (8, 8, 4, (4, (4, 4, 4))),
    ])
    def test_matches_loop_oracle(self, h, w, c, spec):
        got = scans.cross_cube_order(h, w, c, *spec).forward
        assert np.array_equal(got, cross_order_loop_oracle(h, w, c, *spec))

    def test_degenerate_per_pixel_spectral(self):
        patch, cube = 4, (1, 1, 4)
        got = scans.cross_cube_order(4, 4, 4, patch, cube).forward
        assert np.array_equal(got, spectral_scan_order(4, 4, 4).forward)

    def test_degenerate_single_cube_per_patch(self):
        # cube fills the patch: plain patch-local spatial walk with the
        # per-pixel channel run
        patch, cube = 2, (2, 2, 2)
        got = scans.cross_cube_order(2, 2, 2, patch, cube).forward.tolist()
        want = []
        for r in range(2):
            for x in range(2):
                for b in range(2):
                    want.append(b * 4 + r * 2 + x)
        assert got == want

    def test_divisibility_error(self):
        with pytest.raises(ValueError, match="divide"):
            scans.cross_cube_order(4, 4, 3, 4, (2, 2, 2))

    @pytest.mark.parametrize("h,w,c", [(-4, 4, 2), (4, 0, 2), (4, 4, 0), (4, 4, -2)])
    def test_dims_below_one_rejected(self, h, w, c):
        with pytest.raises(ValueError, match="must be >= 1"):
            scans.cross_cube_order(h, w, c, 2, (1, 1, 2))


# every size slot, the cube's sides included, takes a numpy integer and
# refuses a float, a bool or a word; 4.0 == 4, so a cache consulted before
# the check would hand it the order just built for 4
@pytest.mark.parametrize("value,accepted", [(2.5, False), (4.0, False), (True, False),
                                            ("x", False), (np.int64(4), True)],
                         ids=["float", "integral-float", "bool", "word", "np-int64"])
@pytest.mark.parametrize("maker,args", [
    (scans.global_order, (4, 4)),
    (scans.local_patch_order, (4, 4, 4)),
    (scans.cross_cube_order, (4, 4, 4, 4, (4, 4, 4))),
], ids=["global", "local", "cross"])
def test_sizes_follow_integer_rule(maker, args, value, accepted):
    want = maker(*args)
    variants = [args[:i] + (value,) + args[i + 1:]
                for i, size in enumerate(args) if not isinstance(size, tuple)]
    if maker is scans.cross_cube_order:
        cube = args[4]
        variants += [args[:4] + (cube[:i] + (value,) + cube[i + 1:],) for i in range(3)]
    for variant in variants:
        if accepted:
            got = maker(*variant)
            assert got.descriptor == want.descriptor
            assert np.array_equal(got.forward, want.forward)
        else:
            with pytest.raises(ValueError, match="must be an integer"):
                maker(*variant)


class TestValidateOrder:
    def test_generated_orders_are_bijections(self):
        for order in (
            scans.global_order(5, 7),
            scans.local_patch_order(8, 8, 4, reverse=True),
            scans.cross_cube_order(4, 4, 4, 4, (2, 2, 2)),
            spectral_scan_order(3, 5, 6),
        ):
            report = scans.validate_order(order)
            assert report.is_bijection

    def test_global_locality_metric(self):
        assert scans.validate_order(scans.global_order(4, 4)).max_neighbor_distance == 1

    def test_cross_cube_beats_naive_spectral_scan(self):
        # whole-image patch with shallow cubes: the cross order keeps
        # correlated samples close, the plain spectral scan does not
        for h, w, c, patch, cube in [
            (8, 8, 8, 8, (2, 2, 2)),
            (4, 4, 8, 4, (2, 2, 4)),
            (8, 8, 4, 8, (1, 2, 2)),
        ]:
            cross = scans.validate_order(scans.cross_cube_order(h, w, c, patch, cube))
            naive = scans.validate_order(spectral_scan_order(h, w, c))
            assert cross.max_neighbor_distance <= naive.max_neighbor_distance

    def test_broken_order_reported(self):
        bad = scans.ScanOrder(np.array([0, 0, 2]), np.array([0, 1, 2]), "bad")
        assert not scans.validate_order(bad).is_bijection


class TestDeterminismAndCache:
    def test_pure_function_of_parameters(self):
        a = scans.cross_cube_order(4, 4, 4, 4, (2, 2, 2))
        b = scans.cross_cube_order(4, 4, 4, 4, (2, 2, 2))
        assert a is b  # cached by descriptor
        assert np.array_equal(a.forward, b.forward)

    def test_orders_are_read_only(self):
        order = scans.global_order(2, 2)
        with pytest.raises(ValueError):
            order.forward[0] = 3

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    def test_random_dims_bijection_property(self, ph, pw, c):
        h, w = 2 * ph, 2 * pw
        order = scans.cross_cube_order(h, w, 2 * c, 2, (1, 1, c))
        assert scans.validate_order(order).is_bijection
        assert scans.validate_order(scans.local_patch_order(h, w, 2)).is_bijection
        assert scans.validate_order(scans.global_order(h, w, reverse=True)).is_bijection
