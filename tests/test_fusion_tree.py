"""Tests for computation-tree construction."""

import pytest

from repro.expr.parser import parse_program
from repro.fusion.tree import build_forest, build_tree
from repro.opmin.multi_term import optimize_statement


FIG1_SEQ_SRC = """
range V = 10;
range O = 4;
index a, b, c, d, e, f : V;
index i, j, k, l : O;
tensor A(a, c, i, k); tensor B(b, e, f, l);
tensor C(d, f, j, k); tensor D(c, d, e, l);
T1(b, c, d, f) = sum(e, l) B(b,e,f,l) * D(c,d,e,l);
T2(b, c, j, k) = sum(d, f) T1(b,c,d,f) * C(d,f,j,k);
S(a, b, i, j) = sum(c, k) T2(b,c,j,k) * A(a,c,i,k);
"""


class TestBuildTree:
    def test_fig1_shape(self):
        prog = parse_program(FIG1_SEQ_SRC)
        root = build_tree(prog.statements)
        assert root.array.name == "S"
        names = [c.array.name for c in root.children]
        assert set(names) == {"T2", "A"}
        t2 = next(c for c in root.children if c.array.name == "T2")
        assert {c.array.name for c in t2.children} == {"T1", "C"}

    def test_loop_indices(self):
        prog = parse_program(FIG1_SEQ_SRC)
        root = build_tree(prog.statements)
        assert {i.name for i in root.loop_indices} == {"a", "b", "i", "j", "c", "k"}
        t2 = next(c for c in root.children if c.array.name == "T2")
        assert {i.name for i in t2.loop_indices} == {"b", "c", "j", "k", "d", "f"}

    def test_input_leaves_not_fusible(self):
        prog = parse_program(FIG1_SEQ_SRC)
        root = build_tree(prog.statements)
        for child, ok in zip(root.children, root.fusible):
            if child.is_leaf:
                assert not ok
            else:
                assert ok

    def test_common_indices(self):
        prog = parse_program(FIG1_SEQ_SRC)
        root = build_tree(prog.statements)
        t2 = next(c for c in root.children if c.array.name == "T2")
        assert {i.name for i in root.common_indices(t2)} == {"b", "c", "j", "k"}

    def test_dead_statement_rejected(self):
        src = """
        range V = 4; index a, b : V;
        tensor A(a, b);
        T(a) = sum(b) A(a, b);
        S(a) = sum(b) A(a, b);
        """
        prog = parse_program(src)
        with pytest.raises(ValueError, match="several results"):
            build_tree(prog.statements)
        # two results are a forest, in program order, not dead code
        assert [r.array.name for r in build_forest(prog.statements)] == [
            "T", "S",
        ]

    def test_double_assignment_rejected(self):
        src = """
        range V = 4; index a, b : V;
        tensor A(a, b);
        S(a) = sum(b) A(a, b);
        S(a) = sum(b) A(a, b);
        """
        prog = parse_program(src)
        with pytest.raises(ValueError, match="twice"):
            build_tree(prog.statements)


class TestBuildForest:
    def test_shared_temp_becomes_root(self):
        src = """
        range V = 4; index a, b, c : V;
        tensor A(a, b); tensor B(b, c);
        X(a, c) = sum(b) A(a, b) * B(b, c);
        Y(a, b) = sum(c) X(a, c) * B(b, c);
        S(a) = sum(b, c) Y(a, b) * X(b, c);
        """
        prog = parse_program(src)
        forest = build_forest(prog.statements)
        assert len(forest) == 2
        assert forest[0].array.name == "X"
        assert forest[-1].array.name == "S"
        # X appears as a leaf in the S tree
        s_tree = forest[-1]
        leaf_names = {
            n.array.name for n in s_tree.subtree() if n.is_leaf
        }
        assert "X" in leaf_names

    def test_build_tree_rejects_forest(self):
        src = """
        range V = 4; index a, b, c : V;
        tensor A(a, b);
        X(a, b) = A(a, b) + A(a, b);
        S(a) = sum(b, c) X(a, b) * X(b, c);
        """
        prog = parse_program(src)
        with pytest.raises(ValueError, match="shared"):
            build_tree(prog.statements)

    def test_optimized_sequence_builds(self, fig1_statement):
        seq = optimize_statement(fig1_statement)
        root = build_tree(seq)
        assert root.array.name == "S"
        assert len(root.internal_nodes()) == 3
