import math

from blockclique.chain import Block, Endorsement, Slot, fitness
from blockclique.selection import SelectionOracle


class TestDraws:
    def test_block_draw_is_deterministic(self):
        a = SelectionOracle(seed=7, node_weights=64)
        b = SelectionOracle(seed=7, node_weights=64)
        slots = [Slot(t, i) for t in range(8) for i in range(100)]
        assert [a.draw_block_producer(s) for s in slots] == \
               [b.draw_block_producer(s) for s in slots]

    def test_different_seeds_differ(self):
        a = SelectionOracle(seed=7, node_weights=1024)
        b = SelectionOracle(seed=8, node_weights=1024)
        slots = [Slot(0, i) for i in range(50)]
        assert [a.draw_block_producer(s) for s in slots] != \
               [b.draw_block_producer(s) for s in slots]

    def test_single_node_always_selected(self):
        o = SelectionOracle(seed=1, node_weights=[(42, 3)])
        assert {o.draw_block_producer(Slot(0, i)) for i in range(20)} == {42}

    def test_uniform_frequencies_within_five_sigma(self):
        n, draws = 1024, 100_000
        o = SelectionOracle(seed=3, node_weights=n)
        counts = [0] * n
        for i in range(draws):
            counts[o.draw_block_producer(Slot(i % 32, i // 32))] += 1
        mean = draws / n
        sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
        worst = max(abs(c - mean) for c in counts)
        assert worst <= 5 * sigma

    def test_weighted_draws_respect_weights(self):
        o = SelectionOracle(seed=5, node_weights=[(0, 3), (1, 1)])
        counts = [0, 0]
        for i in range(20_000):
            counts[o.draw_block_producer(Slot(0, i))] += 1
        ratio = counts[0] / sum(counts)
        assert abs(ratio - 0.75) < 0.02


class TestEndorserDraws:
    def test_zero_slots_empty(self):
        o = SelectionOracle(seed=1, node_weights=8)
        assert o.draw_endorsers(Slot(0, 1), 0) == []

    def test_repeat_call_identical(self):
        o = SelectionOracle(seed=1, node_weights=8)
        assert o.draw_endorsers(Slot(3, 9), 8) == o.draw_endorsers(Slot(3, 9), 8)

    def test_independent_of_block_draw(self):
        o = SelectionOracle(seed=1, node_weights=8)
        block = o.draw_block_producer(Slot(0, 1))
        endorsers = o.draw_endorsers(Slot(0, 1), 4)
        assert len(endorsers) == 4
        assert block == o.draw_block_producer(Slot(0, 1))

    def test_per_node_endorsement_rate(self):
        n, e, slots = 16, 8, 4000
        o = SelectionOracle(seed=11, node_weights=n)
        counts = [0] * n
        for i in range(slots):
            for node in o.draw_endorsers(Slot(i % 4, i // 4), e):
                counts[node] += 1
        expected = slots * e / n
        for c in counts:
            assert abs(c - expected) < 6 * math.sqrt(expected)


class TestFitness:
    def _block(self, n_endorsements):
        ends = tuple(Endorsement(bytes(32), Slot(0, 1), i, 0)
                     for i in range(n_endorsements))
        return Block(slot=Slot(0, 1), creator=0, parents=(bytes(32),),
                     endorsements=ends, size_bits=10)

    def test_no_endorsements(self):
        assert fitness(self._block(0)) == 1

    def test_three_endorsements(self):
        assert fitness(self._block(3)) == 4

    def test_full_slots(self):
        assert fitness(self._block(8)) == 9

    def test_bounds(self):
        for e in range(9):
            assert 1 <= fitness(self._block(e)) <= 9

