import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulsim.topology import (MIN_UE_SITE_DISTANCE_M, PENETRATION_LOSS_DB, Cell,
                            antenna_gain_db, build_hex_layout, cells_of,
                            drop_ues, macro_path_loss_db, path_loss,
                            wrap_displacement, wrap_distance)
from ulsim.topology import _shadow_draws


class TestLayout:
    def test_two_ring_cluster(self, layout):
        assert layout.n_sites == 19
        assert layout.n_cells == 57
        assert layout.inter_site_distance == 500.0

    def test_one_ring_cluster(self, small_layout):
        assert small_layout.n_sites == 7
        assert small_layout.n_cells == 21

    def test_wrap_vector_lengths(self, layout):
        # The cluster tiles the plane; each translation spans sqrt(19) sites.
        wraps = layout.wrap_vectors
        assert wraps.shape == (7, 2)
        assert np.allclose(wraps[0], 0.0)
        norms = np.linalg.norm(wraps[1:], axis=1)
        assert np.allclose(norms, math.sqrt(19) * 500.0, rtol=1e-12)

    def test_one_ring_wrap_length(self, small_layout):
        norms = np.linalg.norm(small_layout.wrap_vectors[1:], axis=1)
        assert np.allclose(norms, math.sqrt(7) * 500.0, rtol=1e-12)

    def test_site_spacing(self, layout):
        # Nearest-neighbor site distance equals the inter-site distance.
        pos = layout.site_positions
        d = np.linalg.norm(pos[None] - pos[:, None], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert np.isclose(d.min(), 500.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_hex_layout(rings=2, isd=0.0)
        with pytest.raises(ValueError):
            build_hex_layout(rings=-1, isd=500.0)

    def test_cells_enumeration(self, layout):
        cells = cells_of(layout)
        assert len(cells) == 57
        assert [c.cell_id for c in cells] == list(range(57))
        assert cells[4].site_id == 1
        assert cells[4].boresight_deg == 120.0


class TestWrapMetric:
    def test_identity(self, layout):
        assert wrap_distance([10.0, 20.0], [10.0, 20.0], layout) == 0.0

    def test_never_exceeds_euclidean(self, layout):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p, q = rng.uniform(-1500, 1500, size=(2, 2))
            assert wrap_distance(p, q, layout) <= np.linalg.norm(p - q) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-700.0, max_value=700.0),
                    min_size=6, max_size=6))
    def test_symmetry_and_triangle(self, coords):
        layout = build_hex_layout(rings=2, isd=500.0)
        p, q, r = np.asarray(coords).reshape(3, 2)
        dpq = wrap_distance(p, q, layout)
        assert np.isclose(dpq, wrap_distance(q, p, layout), atol=1e-9)
        # Triangle inequality needs the quotient metric, which the 7-translation
        # minimum realizes for in-domain points; nearby points stay exact.
        assert dpq <= (wrap_distance(p, r, layout)
                       + wrap_distance(r, q, layout) + 1e-6)

    def test_displacement_matches_distance(self, layout):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p, q = rng.uniform(-1500, 1500, size=(2, 2))
            disp = wrap_displacement(p, q, layout)
            assert np.isclose(np.linalg.norm(disp), wrap_distance(p, q, layout))


class TestPathLoss:
    def test_macro_reference_distance(self):
        assert np.isclose(macro_path_loss_db(1000.0), 128.1, atol=1e-12)
        assert np.isclose(macro_path_loss_db(100.0), 128.1 - 37.6, atol=1e-12)

    def test_antenna_pattern(self):
        assert antenna_gain_db(0.0) == 14.0
        assert np.isclose(antenna_gain_db(70.0), 2.0)
        assert np.isclose(antenna_gain_db(-70.0), 2.0)
        assert np.isclose(antenna_gain_db(180.0), -11.0)  # backlobe clamp
        # Wrapping: 350 degrees off equals 10 degrees off.
        assert np.isclose(antenna_gain_db(350.0), antenna_gain_db(10.0))

    def test_single_link_hand_value(self, layout):
        # UE 1 km east of site 0 on the boresight of sector 0:
        # 128.1 + shadow + 20 (penetration) - 14 (boresight gain).
        cell = Cell(cell_id=0, site_id=0, boresight_deg=0.0)
        ue = layout.site_positions[0] + np.array([1000.0, 0.0])
        got = path_loss(ue, cell, shadow_db=3.0, layout=layout)
        assert np.isclose(got, 128.1 + 3.0 + PENETRATION_LOSS_DB - 14.0,
                          atol=1e-9)

    def test_min_distance_enforced(self, layout):
        cell = Cell(cell_id=0, site_id=0, boresight_deg=0.0)
        ue = layout.site_positions[0] + np.array([10.0, 0.0])
        with pytest.raises(ValueError):
            path_loss(ue, cell, 0.0, layout)


class TestDrops:
    def test_ue_count(self, small_layout):
        positions, serving, plmap = drop_ues(small_layout, ues_per_cell=5,
                                             seed=11)
        n = 5 * small_layout.n_cells
        assert positions.shape == (n, 2) and serving.shape == (n,)
        assert plmap.loss_db.shape == (n, small_layout.n_cells)

    def test_min_site_distance(self, small_layout):
        positions, _, _ = drop_ues(small_layout, ues_per_cell=5, seed=11)
        for pos in positions:
            for s in range(small_layout.n_sites):
                d = wrap_distance(pos, small_layout.site_positions[s],
                                  small_layout)
                assert d >= MIN_UE_SITE_DISTANCE_M - 1e-9

    def test_attachment_consistency(self, small_layout):
        # Serving cell is the argmin of the same loss matrix the map exposes.
        _, serving, plmap = drop_ues(small_layout, ues_per_cell=4, seed=7)
        assert np.array_equal(serving, np.argmin(plmap.loss_db, axis=1))

    def test_determinism(self, small_layout):
        a = drop_ues(small_layout, ues_per_cell=3, seed=5)
        b = drop_ues(small_layout, ues_per_cell=3, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a[:2], b[:2]))
        assert np.array_equal(a[2].loss_db, b[2].loss_db)
        c = drop_ues(small_layout, ues_per_cell=3, seed=6)
        assert not np.array_equal(a[0], c[0])

    def test_cosite_sectors_share_shadowing(self, small_layout):
        # Within one site, sector losses differ only by the antenna pattern,
        # so subtracting the (shadow-free) pattern-only matrix leaves equal
        # values for the three co-site columns.
        positions, _, plmap = drop_ues(small_layout, ues_per_cell=4, seed=9)
        cells = cells_of(small_layout)
        for u in (0, 7, 33):
            base = []
            for cell in cells[:3]:      # three sectors of site 0
                disp = wrap_displacement(
                    small_layout.site_positions[cell.site_id],
                    positions[u], small_layout)
                bearing = math.degrees(math.atan2(disp[1], disp[0]))
                gain = float(antenna_gain_db(bearing - cell.boresight_deg))
                base.append(plmap.loss_db[u, cell.cell_id] + gain)
            assert np.allclose(base, base[0], atol=1e-9)

    def test_shadowing_std(self):
        draws = _shadow_draws(3000, 19, seed=1)
        assert abs(draws.std() - 8.0) < 0.3
        assert abs(draws.mean()) < 0.3


class TestPathLossMap:
    def test_cross_losses_sorted_and_exclude_serving(self, small_layout):
        _, serving, plmap = drop_ues(small_layout, ues_per_cell=2, seed=3)
        u = 5
        s = serving[u]
        cross = plmap.cross_losses(u, s)
        assert len(cross) == small_layout.n_cells - 1
        assert np.all(np.diff(cross) >= 0)
        assert plmap.min_cross_loss(u, s) == cross[0]
        # Serving loss is the row minimum by attachment.
        assert plmap.serving_loss(u, s) <= cross[0] + 1e-12
