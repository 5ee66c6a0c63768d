"""Property tests: StackedClassVector on degenerate and mixed batches.

``stack``/``extract`` (through the trusted ``ClassVector.from_parts``
path), the CSR ``from_parts`` round trip, ``ClassVector.transfer_element``
and the ``π``-projector reduction behave on the edges the randomized
grids rarely hit — single-instance stacks, ν = 0 instances (one class)
next to wide ones, and ``N = 1`` universes.  Per-instance references are
``B = 1`` stacks, the state the per-instance ``classes`` backend runs on.
Class maps of every integer width run the same kernel, kept at their
own dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import ClassInstance, StackedClassVector, execute_class_batch
from repro.database import round_robin, zipf_dataset
from repro.database.dynamic import random_update_stream
from repro.errors import ValidationError
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
        reference = build_instance(rng, 8, 4)
        # from_parts shares the class structure: copy-on-write keeps the
        # reference untouched while the state round-trips.
        state = ClassVector.from_parts(
            reference.element_classes,
            reference.class_sizes,
            reference.class_amplitudes(),
        )
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
        for b, instance in enumerate((narrow, wide)):
            single = StackedClassVector.stack([instance])
            single.apply_global_phase(-1.0)
            single.apply_phase_slice("w", 0, np.exp(0.4j))
            # Not ==: NumPy multiplies a one-element flag column in place
            # on another loop than the plane's longer strided column, and
            # the two may round the complex product apart.  Samplers never
            # build ν = 0 instances.
            np.testing.assert_allclose(
                stacked.extract(b).class_amplitudes(),
                single.values(),
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
        """Moving elements between classes on the live views never changes
        any instance's total multiplicity, and the stack of the views
        carries each view's multiplicities in its own segment."""
        shapes, seed = batch
        rng = as_generator(seed)
        views = [
            ClassVector.uniform(build_instance(rng, n, c).element_classes, c)
            for n, c in shapes
        ]
        totals = [view.class_sizes.sum() for view in views]
        for _ in range(8):
            b = int(rng.integers(len(views)))
            n, c = shapes[b]
            views[b].transfer_element(int(rng.integers(n)), int(rng.integers(c)))
        state = StackedClassVector.stack(views)
        offsets = state.offsets
        for b, view in enumerate(views):
            seg = state.class_sizes[offsets[b]:offsets[b + 1]]
            assert seg.sum() == totals[b]
            assert (seg >= 0).all()
            assert (seg == view.class_sizes).all()
            # the class map and the multiplicity plane stay consistent
            rebuilt = np.bincount(
                view.element_classes, minlength=shapes[b][1]
            ).astype(np.float64)
            assert (seg == rebuilt).all()

    @given(batches())
    @settings(max_examples=40, deadline=None)
    def test_pi_projector_matches_per_instance(self, batch):
        """The π-projector phase — the one cross-cell reduction in the
        loop — agrees bit for bit with each instance's own ``B = 1``
        stack, whatever widths share the plane."""
        shapes, seed = batch
        rng = as_generator(seed)
        singles = [build_instance(rng, n, c) for n, c in shapes]
        state = StackedClassVector.stack(singles)
        phases = np.exp(1j * rng.normal(size=len(shapes)))
        state.apply_pi_projector_phase(phases)
        for b, instance in enumerate(singles):
            single = StackedClassVector.stack([instance])
            single.apply_pi_projector_phase(complex(phases[b]))
            assert (state.extract(b).class_amplitudes() == single.values()).all()

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


#: The integer widths a class map may arrive in: a live view's narrow
#: unsigned map (``uint8`` for ν ≤ 255) and the spec builds' ``int64``.
MAP_DTYPES = (np.uint8, np.uint16, np.uint32, np.int64)


@st.composite
def joint_tables(draw):
    """One instance's joint counts (ν ≥ 1, M ≥ 1) and its machine count."""
    nu = draw(st.integers(min_value=1, max_value=6))
    joints = draw(st.lists(st.integers(0, nu), min_size=1, max_size=40))
    if not any(joints):
        joints[0] = nu
    return np.array(joints, dtype=np.int64), nu, draw(st.integers(1, 3))


class TestNarrowClassMaps:
    """Maps are only indices: any integer width runs the same kernel."""

    @given(st.lists(joint_tables(), min_size=1, max_size=4), st.sampled_from(
        ["sequential", "parallel"]))
    @settings(max_examples=40, deadline=None)
    def test_every_width_gives_equal_rows(self, tables, model):
        """uint8, uint16, uint32 and int64 copies of the same maps give
        ``==`` final states, fidelities and output probabilities."""
        runs = []
        for dtype in MAP_DTYPES:
            instances = [
                ClassInstance(joints.astype(dtype), nu, n, int(joints.sum()))
                for joints, nu, n in tables
            ]
            runs.append(execute_class_batch(instances, model=model))
        reference = runs[0]
        for run in runs[1:]:
            for ours, ref in zip(run, reference):
                assert ours.fidelity == ref.fidelity
                assert (ours.output_probabilities == ref.output_probabilities).all()
                state, ref_state = ours.final_state, ref.final_state
                assert (state.class_amplitudes() == ref_state.class_amplitudes()).all()
                assert (state.class_sizes == ref_state.class_sizes).all()
                assert (state.element_classes == ref_state.element_classes).all()
        for dtype, run in zip(MAP_DTYPES, runs):
            assert all(r.final_state.element_classes.dtype == dtype for r in run)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_unsigned_maps_are_shared_not_copied(self, dtype):
        ec = np.array([0, 3, 1, 4, 4], dtype=dtype)
        stacked = StackedClassVector.uniform([ec], [5])
        assert stacked._element_classes[0] is ec
        assert stacked.extract(0).element_classes is ec
        assert ClassVector(ec, 5).element_classes is ec

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_class_out_of_range_still_raises(self, dtype):
        ec = np.array([0, 5, 1], dtype=dtype)
        with pytest.raises(ValidationError, match=r"\[0, 5\)"):
            ClassVector(ec, 5)
        with pytest.raises(ValidationError, match=r"instance 1: .*\[0, 5\)"):
            StackedClassVector.uniform([np.zeros(2, dtype=dtype), ec], [1, 5])

    def test_other_maps_are_cast_to_int64(self):
        # Floats (as before) and a map too narrow for the top class
        # transfer_element may write.
        assert ClassVector(np.array([0.0, 2.0]), 3).element_classes.dtype == np.int64
        wide = ClassVector(np.array([0, 255], dtype=np.uint8), 300)
        assert wide.element_classes.dtype == np.int64
        wide.transfer_element(0, 299)
        assert wide.element_classes.tolist() == [299, 255]

    def test_transfer_element_keeps_a_uint8_map(self):
        ec = np.array([0, 1, 2, 3], dtype=np.uint8)
        state = ClassVector.uniform(ec, 5)
        state.transfer_element(2, 4)
        assert state.element_classes.dtype == np.uint8
        assert state.element_classes.tolist() == [0, 1, 4, 3]
        assert ec.tolist() == [0, 1, 2, 3]  # copy on first write

    def test_live_view_stays_uint8_under_updates(self):
        db = round_robin(zipf_dataset(64, 40, exponent=1.2, rng=2), n_machines=3)
        stream = random_update_stream(db, 30, rng=4)
        view = stream.class_state()
        assert db.nu <= 255 and view.element_classes.dtype == np.uint8
        stream.apply_all()
        assert view.element_classes.dtype == np.uint8
        assert (view.element_classes == db.joint_counts).all()
        snapshot = ClassInstance.from_class_state(view, db.n_machines)
        assert snapshot.joints.dtype == np.uint8
        assert snapshot.joints.nbytes == db.universe
