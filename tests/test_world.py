"""Grid world model: metric embedding, adjacency, instance file round-trips."""

import json
import math

import pytest

from mapflight.geometry3d import CylinderBody
from mapflight.world import (
    FACE_6,
    FULL_26,
    PLANAR_DIAG_10,
    AgentSpec,
    GridWorld,
    MAX_CELL_PER_BODY,
    MAX_CELLS,
    InputError,
    load_instance,
    move_duration,
    neighbors,
    save_instance,
)

HUGE_INT = 10**400  # a JSON integer too large for a float


class TestGridWorld:
    def test_center_and_cell_roundtrip(self):
        w = GridWorld((4, 3, 2), 0.5)
        assert w.center((0, 0, 0)) == (0.25, 0.25, 0.25)
        assert w.center((3, 2, 1)) == (1.75, 1.25, 0.75)
        for cell in [(0, 0, 0), (3, 2, 1), (1, 1, 1)]:
            assert w.cell_at(w.center(cell)) == cell

    def test_bounds_and_obstacles(self):
        w = GridWorld((2, 2, 1), 1.0, frozenset({(1, 0, 0)}))
        assert w.in_bounds((1, 1, 0)) and not w.in_bounds((2, 0, 0)) and not w.in_bounds((-1, 0, 0))
        assert w.is_free((0, 0, 0)) and not w.is_free((1, 0, 0))

    def test_vertex_index_is_a_bijection(self):
        w = GridWorld((3, 4, 2), 1.0)
        seen = {w.vertex_index((i, j, k)) for i in range(3) for j in range(4) for k in range(2)}
        assert seen == set(range(24))

    @pytest.mark.parametrize(
        "dims,cell,conn",
        [
            ((0, 1, 1), 1.0, FACE_6),
            ((2, 2), 1.0, FACE_6),
            ((2, 2, 2), 0.0, FACE_6),
            ((2, 2, 2), 1.0, "bogus"),
            ((2, 2, 2), 1.0, [FACE_6]),
            (True, 1.0, FACE_6),
            ((True, 2, 2), 1.0, FACE_6),
            ("abc", 1.0, FACE_6),
            pytest.param(HUGE_INT, 1.0, FACE_6, id="huge-int-dims"),
            ([2, 2, 2], 1.0, FACE_6),
            ((2, 2, 2), True, FACE_6),
            ((2, 2, 2), "0.5", FACE_6),
            pytest.param((2, 2, 2), HUGE_INT, FACE_6, id="huge-int-cell-size"),
        ],
    )
    def test_rejects_bad_construction(self, dims, cell, conn):
        with pytest.raises(ValueError):
            GridWorld(dims, cell, connectivity=conn)

    def test_rejects_more_cells_than_the_ceiling(self):
        GridWorld((MAX_CELLS, 1, 1), 0.5)  # at the ceiling: fine
        for dims in ((MAX_CELLS + 1, 1, 1), (2**63, 4, 2), (1024, 1024, 2)):
            with pytest.raises(ValueError, match=f"more than {MAX_CELLS} cells"):
                GridWorld(dims, 0.5)

    def test_rejects_a_far_corner_beyond_the_float_range(self):
        GridWorld((1, 1, 1), 1e308)  # a one-cell grid ends at 1e308: fine
        with pytest.raises(ValueError, match="far corner"):
            GridWorld((4, 4, 2), 1e308)

    def test_rejects_out_of_bounds_obstacle(self):
        with pytest.raises(ValueError):
            GridWorld((2, 2, 1), 1.0, frozenset({(5, 0, 0)}))

    @pytest.mark.parametrize("obstacle", [(0, 0), (0.0, 0, 0), (True, 0, 0), [0, 0, 0]])
    def test_rejects_obstacles_that_are_not_cells(self, obstacle):
        with pytest.raises(ValueError, match="not a cell of three integers"):
            GridWorld((2, 2, 1), 1.0, (obstacle,))

    def test_cell_size_becomes_a_float(self):
        w = GridWorld((2, 2, 1), 1, [(1, 0, 0)])
        assert type(w.cell_size) is float and w.obstacles == frozenset({(1, 0, 0)})


class TestNeighbors:
    def test_face6_center_and_corner(self):
        w = GridWorld((3, 3, 3), 1.0)
        assert len(neighbors(w, (1, 1, 1))) == 6
        assert len(neighbors(w, (0, 0, 0))) == 3

    def test_obstacles_are_excluded(self):
        w = GridWorld((3, 3, 1), 1.0, frozenset({(1, 0, 0)}))
        assert (1, 0, 0) not in neighbors(w, (0, 0, 0))

    def test_planar_diagonals_and_corner_cutting(self):
        w = GridWorld((3, 3, 1), 1.0, connectivity=PLANAR_DIAG_10)
        assert len(neighbors(w, (1, 1, 0))) == 8  # 4 faces in-plane + 4 planar diagonals
        # blocking one face cell forbids the two diagonals that pass its corner
        wb = GridWorld((3, 3, 1), 1.0, frozenset({(1, 0, 0)}), connectivity=PLANAR_DIAG_10)
        got = set(neighbors(wb, (1, 1, 0)))
        assert (0, 0, 0) not in got and (2, 0, 0) not in got

    def test_full26_center(self):
        w = GridWorld((3, 3, 3), 1.0, connectivity=FULL_26)
        assert len(neighbors(w, (1, 1, 1))) == 26

    def test_rejects_bad_query(self):
        w = GridWorld((2, 2, 1), 1.0, frozenset({(1, 0, 0)}))
        with pytest.raises(ValueError):
            neighbors(w, (5, 5, 5))
        with pytest.raises(ValueError):
            neighbors(w, (1, 0, 0))


class TestMoveDuration:
    def test_face_and_diagonal(self):
        w = GridWorld((3, 3, 1), 0.5)
        assert move_duration(w, (0, 0, 0), (1, 0, 0), 0.5) == pytest.approx(1.0)
        assert move_duration(w, (0, 0, 0), (1, 1, 0), 0.5) == pytest.approx(math.sqrt(2), rel=1e-12)


class TestAgentSpec:
    def test_rejects_bad_fields(self):
        body = CylinderBody(0.25, 1.0)
        for agent_id, start, speed in [
            (-1, (0, 0, 0), 0.5),
            (True, (0, 0, 0), 0.5),
            ("0", (0, 0, 0), 0.5),
            (HUGE_INT, (0, 0, 0), 0.5),
            (2**63, (0, 0, 0), 0.5),
            (10**19, (0, 0, 0), 0.5),
            (0, (0, 0), 0.5),
            (0, [0, 0, 0], 0.5),
            (0, (0, 0, True), 0.5),
            (0, (0, 0, 0), 0.0),
            (0, (0, 0, 0), True),
            (0, (0, 0, 0), "0.5"),
            (0, (0, 0, 0), HUGE_INT),
        ]:
            with pytest.raises(ValueError):
                AgentSpec(agent_id, start, (1, 0, 0), body, speed)

    def test_an_agent_may_start_at_its_goal(self):
        # the instance file forbids it; generated instances and the solver allow it
        spec = AgentSpec(0, (1, 0, 0), (1, 0, 0), CylinderBody(0.25, 1.0), 1)
        assert spec.start == spec.goal and type(spec.speed) is float


class TestInstanceFiles:
    def make_instance(self):
        world = GridWorld((4, 4, 2), 0.5, frozenset({(1, 1, 0), (2, 2, 1)}), FACE_6)
        agents = [
            AgentSpec(0, (0, 0, 0), (3, 3, 0), CylinderBody(0.25, 1.0), 0.5),
            AgentSpec(1, (3, 0, 1), (0, 3, 1), CylinderBody(0.3, 0.8), 0.4),
        ]
        return world, agents

    def test_roundtrip(self, tmp_path):
        world, agents = self.make_instance()
        path = tmp_path / "inst.json"
        save_instance(world, agents, path)
        w2, a2 = load_instance(path)
        assert w2 == world
        assert a2 == agents

    def write(self, tmp_path, doc):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def base_doc(self):
        return {
            "grid": {"dims": [3, 3, 1], "cell_size": 0.5},
            "agents": [
                {"id": 0, "start": [0, 0, 0], "goal": [2, 0, 0]},
                {"id": 1, "start": [0, 2, 0], "goal": [2, 2, 0]},
            ],
        }

    def test_minimal_document_defaults(self, tmp_path):
        world, agents = load_instance(self.write(tmp_path, self.base_doc()))
        assert world.connectivity == FACE_6 and world.obstacles == frozenset()
        assert agents[0].body == CylinderBody(0.25, 1.0) and agents[0].speed == 0.5

    def test_not_json(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(InputError, match="not valid JSON"):
            load_instance(path)

    @pytest.mark.parametrize("key,half", [("radius", 1.0), ("height", 0.5)])
    def test_rejects_a_body_too_small_for_its_cells(self, tmp_path, key, half):
        # the floor is cell_size / MAX_CELL_PER_BODY on the radius and on the half height
        floor = 0.5 / MAX_CELL_PER_BODY
        doc = self.base_doc()
        doc["agents"][1][key] = floor / half
        load_instance(self.write(tmp_path, doc))  # at the floor: fine
        doc["agents"][1][key] = math.nextafter(floor, 0.0) / half
        name = "radius" if key == "radius" else "half height"
        with pytest.raises(InputError, match=rf"agents\[1\]: agent 1: {name} .* is below cell_size / {MAX_CELL_PER_BODY!r}"):
            load_instance(self.write(tmp_path, doc))

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda d: d.pop("agents"), "missing required key 'agents'"),
            (lambda d: d["grid"].pop("dims"), "missing required key 'dims'"),
            (lambda d: d.update(extra=1), "unknown keys"),
            (lambda d: d["grid"].update(dims=[3, 3]), "three integers"),
            (lambda d: d["grid"].update(dims=[3, 3, 0]), ">= 1"),
            (lambda d: d["grid"].update(cell_size=-1), "positive finite"),
            (lambda d: d["grid"].update(obstacles=[[9, 9, 9]]), "outside dims"),
            (lambda d: d["grid"].update(connectivity="hex"), "unknown value"),
            (lambda d: d["grid"].update(connectivity=["face-6"]), r"unknown value \['face-6'\]"),
            (lambda d: d["grid"].update(cell_size=HUGE_INT), "cell_size must be a positive finite number"),
            (lambda d: d["grid"].update(obstacles=[[0, 0, True]]), "not a cell of three integers"),
            (lambda d: d["agents"][0].update(radius=HUGE_INT), "radius must be a positive finite number"),
            (lambda d: d["agents"][0].update(start=[0, 0]), "start must be a cell of three integers"),
            (lambda d: d["agents"][0].update(id=-3), "non-negative integer"),
            (lambda d: d["agents"][0].update(start=[9, 0, 0]), "out of bounds"),
            (lambda d: d["agents"][0].update(goal=[0, 0, 0]), "start and goal must differ"),
            (lambda d: d["agents"][0].update(speed=0), "positive finite"),
            (lambda d: d["agents"][0].update(speed=True), "speed must be a positive finite number"),
            (lambda d: d["agents"][0].update(speed=1e4), "one-cell move time"),
            (lambda d: d["agents"][1].update(speed=1e-4), "one-cell move time"),
            (lambda d: d["grid"].update(cell_size=1e4), "one-cell move time"),
            (lambda d: d["agents"][1].update(id=0), "duplicate agent id"),
            (lambda d: d["agents"][1].update(id=5), "contiguous"),
            (lambda d: d["agents"][1].update(start=[0, 0, 0]), "share start"),
            (lambda d: d["agents"][1].update(goal=[2, 0, 0]), "share goal"),
            (lambda d: d.update(agents=[]), "non-empty list"),
        ],
    )
    def test_rejects_malformed_documents(self, tmp_path, mutate, match):
        doc = self.base_doc()
        mutate(doc)
        with pytest.raises(InputError, match=match):
            load_instance(self.write(tmp_path, doc))

    def test_move_times_inside_the_range_are_accepted(self, tmp_path):
        doc = self.base_doc()
        doc["agents"][0]["speed"] = 400.0  # 1.25 ms a cell
        doc["agents"][1]["speed"] = 0.001  # 500 s a cell
        _, agents = load_instance(self.write(tmp_path, doc))
        assert [a.speed for a in agents] == [400.0, 0.001]

    def test_rejects_start_on_obstacle(self, tmp_path):
        doc = self.base_doc()
        doc["grid"]["obstacles"] = [[0, 0, 0]]
        with pytest.raises(InputError, match="is an obstacle"):
            load_instance(self.write(tmp_path, doc))

    def test_agents_sorted_by_id(self, tmp_path):
        doc = self.base_doc()
        doc["agents"] = list(reversed(doc["agents"]))
        _, agents = load_instance(self.write(tmp_path, doc))
        assert [a.id for a in agents] == [0, 1]
