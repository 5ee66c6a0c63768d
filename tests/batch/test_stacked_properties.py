"""Property tests: StackedClassVector on degenerate and mixed batches.

``stack``/``extract`` (through the trusted ``ClassVector.from_parts``
path), the CSR ``from_parts`` round trip, ``transfer_element`` and the
``π``-projector reduction behave on the edges the randomized grids
rarely hit — single-instance stacks, ν = 0 instances (one class) next to
wide ones, and ``N = 1`` universes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import StackedClassVector
from repro.qsim import ClassVector
from repro.utils.rng import as_generator

#: One instance: (element→class map, class count), sizes kept tiny so the
#: hypothesis grid explores shapes, not arithmetic.
instance_shapes = st.tuples(
    st.integers(min_value=1, max_value=9),   # N
    st.integers(min_value=1, max_value=6),   # ν + 1  (1 ⇒ a ν=0 instance)
)


def build_instance(rng: np.random.Generator, n: int, n_classes: int) -> ClassVector:
    element_classes = rng.integers(0, n_classes, size=n).astype(np.int64)
    amps = rng.normal(size=(n_classes, 2)) + 1j * rng.normal(size=(n_classes, 2))
    state = ClassVector(element_classes, n_classes, amps=amps)
    return state


@st.composite
def batches(draw):
    shapes = draw(st.lists(instance_shapes, min_size=1, max_size=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return shapes, seed


class TestStackExtractRoundTrip:
    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_stack_then_extract_is_identity(self, batch):
        """stack → extract returns every instance cell for cell, at any
        mix of widths."""
        shapes, seed = batch
        rng = as_generator(seed)
        singles = [build_instance(rng, n, c) for n, c in shapes]
        stacked = StackedClassVector.stack(singles)
        assert stacked.batch_size == len(singles)
        for b, single in enumerate(singles):
            extracted = stacked.extract(b)
            assert extracted.n_classes == single.n_classes
            assert extracted.n_elements == single.n_elements
            assert (extracted.class_amplitudes() == single.class_amplitudes()).all()
            assert (extracted.class_sizes == single.class_sizes).all()
            assert (extracted.element_classes == single.element_classes).all()

    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_norms_and_probabilities_survive_stacking(self, batch):
        shapes, seed = batch
        rng = as_generator(seed)
        singles = [build_instance(rng, n, c) for n, c in shapes]
        stacked = StackedClassVector.stack(singles)
        for b, single in enumerate(singles):
            assert stacked.norms()[b] == pytest.approx(single.norm(), abs=1e-12)
            np.testing.assert_allclose(
                stacked.output_probabilities(b),
                single.marginal_probabilities("i"),
                atol=1e-12,
            )

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_single_instance_stack_is_transparent(self, n_classes, seed):
        """B = 1: the stack is exactly its one instance."""
        rng = as_generator(seed)
        single = build_instance(rng, 7, n_classes)
        stacked = StackedClassVector.stack([single])
        assert stacked.batch_size == 1
        assert stacked.offsets.tolist() == [0, n_classes]
        assert (stacked.extract(0).class_amplitudes() == single.class_amplitudes()).all()

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_n_equals_one_instances(self, n_classes, seed):
        """N = 1 universes stack, extract and normalize like any other."""
        rng = as_generator(seed)
        singles = [build_instance(rng, 1, n_classes), build_instance(rng, 5, 2)]
        stacked = StackedClassVector.stack(singles)
        assert stacked.n_elements(0) == 1
        extracted = stacked.extract(0)
        assert extracted.n_elements == 1
        assert (extracted.class_amplitudes() == singles[0].class_amplitudes()).all()
        uniform = StackedClassVector.uniform(
            [s.element_classes for s in singles], [s.n_classes for s in singles]
        )
        np.testing.assert_allclose(uniform.norms(), np.ones(2), atol=1e-12)


class TestFromPartsContract:
    """extract() rides ClassVector.from_parts — shared, copy-on-write."""

    @given(batches())
    @settings(max_examples=40, deadline=None)
    def test_extracted_states_share_class_maps(self, batch):
        shapes, seed = batch
        rng = as_generator(seed)
        singles = [build_instance(rng, n, c) for n, c in shapes]
        stacked = StackedClassVector.stack(singles)
        for b in range(stacked.batch_size):
            extracted = stacked.extract(b)
            # from_parts shares (not copies) the map — the O(N) rebuild
            # the fast path exists to avoid.
            assert extracted.element_classes is stacked._element_classes[b]

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_transfer_element_on_extract_never_corrupts_the_stack(
        self, n_classes, seed
    ):
        """Copy-on-write: a dynamic update on an extracted state must not
        write through to the stacked tensor's shared class map."""
        rng = as_generator(seed)
        singles = [build_instance(rng, 6, n_classes) for _ in range(2)]
        stacked = StackedClassVector.stack(singles)
        before_map = stacked._element_classes[0].copy()
        before_sizes = stacked.class_sizes.copy()
        extracted = stacked.extract(0)
        element = int(rng.integers(0, extracted.n_elements))
        target = int(rng.integers(0, n_classes))
        extracted.transfer_element(element, target)
        assert int(extracted.element_classes[element]) == target
        assert (stacked._element_classes[0] == before_map).all()
        assert (stacked.class_sizes == before_sizes).all()

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_transfer_element_roundtrip_restores_state(self, seed):
        rng = as_generator(seed)
        single = build_instance(rng, 8, 4)
        reference = single.copy()
        state = single.copy()
        element = int(rng.integers(0, 8))
        original = int(state.element_classes[element])
        target = (original + 1) % 4
        state.transfer_element(element, target)
        state.transfer_element(element, original)
        assert (state.element_classes == reference.element_classes).all()
        assert (state.class_sizes == reference.class_sizes).all()
        assert state.norm() == pytest.approx(reference.norm(), abs=1e-12)


class TestMixedWidths:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_nu_zero_instance_next_to_wide_sibling(self, seed):
        """A one-class (ν = 0) instance next to a wide one keeps its
        one-cell segment under the batched operator surface."""
        rng = as_generator(seed)
        narrow = build_instance(rng, 4, 1)   # one class only
        wide = build_instance(rng, 6, 5)
        stacked = StackedClassVector.stack([narrow, wide])
        assert stacked.offsets.tolist() == [0, 1, 6]
        stacked.apply_global_phase(-1.0)
        stacked.apply_phase_slice("w", 0, np.exp(0.4j))
        for b, single in enumerate((narrow, wide)):
            single.apply_global_phase(-1.0)
            single.apply_phase_slice("w", 0, np.exp(0.4j))
            # Not ==: NumPy multiplies a one-element flag column in place
            # on another loop than the plane's longer strided column, and
            # the two may round the complex product apart.  Samplers never
            # build ν = 0 instances.
            np.testing.assert_allclose(
                stacked.extract(b).class_amplitudes(),
                single.class_amplitudes(),
                atol=1e-12,
            )


class TestCsrPlane:
    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_from_parts_round_trip(self, batch):
        """extract → from_parts of the CSR pieces is the identity, at any
        mix of widths and universe sizes."""
        shapes, seed = batch
        rng = as_generator(seed)
        singles = [build_instance(rng, n, c) for n, c in shapes]
        maps = [s.element_classes for s in singles]
        state = StackedClassVector.stack(singles)
        rebuilt = StackedClassVector.from_parts(
            maps, state.offsets, state.class_sizes, state.values()
        )
        assert (rebuilt.values() == state.values()).all()
        assert (rebuilt.offsets == state.offsets).all()
        assert (rebuilt.n_classes == state.n_classes).all()
        for b, single in enumerate(singles):
            cell = rebuilt.extract(b)
            assert (cell.class_amplitudes() == single.class_amplitudes()).all()
            assert (cell.element_classes == single.element_classes).all()

    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_transfer_element_conserves_counts(self, batch):
        """Moving elements between classes never changes any instance's
        total multiplicity, and never touches sibling segments."""
        shapes, seed = batch
        rng = as_generator(seed)
        maps = [build_instance(rng, n, c).element_classes for n, c in shapes]
        state = StackedClassVector.uniform(maps, [c for _, c in shapes])
        offsets = state.offsets
        totals = [
            state.class_sizes[offsets[b]:offsets[b + 1]].sum()
            for b in range(state.batch_size)
        ]
        for _ in range(8):
            b = int(rng.integers(state.batch_size))
            n, c = shapes[b]
            state.transfer_element(b, int(rng.integers(n)), int(rng.integers(c)))
        for b in range(state.batch_size):
            seg = state.class_sizes[offsets[b]:offsets[b + 1]]
            assert seg.sum() == totals[b]
            assert (seg >= 0).all()
            # the class map and the multiplicity plane stay consistent
            rebuilt = np.bincount(
                state._element_classes[b], minlength=shapes[b][1]
            ).astype(np.float64)
            assert (seg == rebuilt).all()

    @given(batches())
    @settings(max_examples=40, deadline=None)
    def test_pi_projector_matches_per_instance(self, batch):
        """The π-projector phase — the one cross-cell reduction in the
        loop — agrees bit for bit with each instance's own ClassVector,
        whatever widths share the plane."""
        shapes, seed = batch
        rng = as_generator(seed)
        singles = [build_instance(rng, n, c) for n, c in shapes]
        state = StackedClassVector.stack(singles)
        phases = np.exp(1j * rng.normal(size=len(shapes)))
        state.apply_pi_projector_phase(phases)
        for b, single in enumerate(singles):
            single.apply_pi_projector_phase(complex(phases[b]))
            assert (state.extract(b).class_amplitudes()
                    == single.class_amplitudes()).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @given(
        widths=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8),
        homogeneous=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_sums_match_each_segments_np_sum(
        self, dtype, widths, homogeneous, seed
    ):
        """The per-width row sums (a plain reshape when every width agrees)
        equal ``np.sum`` over each segment's own slice with ``==`` — widths
        on both sides of NumPy's 8-wide unroll and 128-element block."""
        if homogeneous:
            widths = [widths[0]] * len(widths)
        rng = as_generator(seed)
        state = StackedClassVector.uniform(
            [np.zeros(1, dtype=np.int64)] * len(widths), widths
        )
        plane = rng.normal(size=sum(widths)).astype(dtype)
        if dtype is np.complex128:
            plane += 1j * rng.normal(size=plane.size)
        sums = state._segment_sums(plane)
        offsets = state.offsets
        for b in range(len(widths)):
            assert sums[b] == np.sum(plane[offsets[b]:offsets[b + 1]])
