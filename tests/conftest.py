"""Shared fixtures: common ranges, indices, tensors, and paper programs."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.expr.indices import Index, IndexRange
from repro.expr.parser import parse_program
from repro.expr.tensor import Tensor


@pytest.fixture
def rng_v() -> IndexRange:
    return IndexRange("V", 10)


@pytest.fixture
def rng_o() -> IndexRange:
    return IndexRange("O", 4)


@pytest.fixture
def idx(rng_v, rng_o):
    """Index table: a-f over V, i-l over O (as in the paper)."""
    table = {}
    for name in "abcdef":
        table[name] = Index(name, rng_v)
    for name in "ijkl":
        table[name] = Index(name, rng_o)
    return table


@pytest.fixture
def fig1_source() -> str:
    """The Section-2 example: S_abij = sum A*B*C*D."""
    return """
    range V = 10;
    range O = 4;
    index a, b, c, d, e, f : V;
    index i, j, k, l : O;
    tensor A(a, c, i, k);
    tensor B(b, e, f, l);
    tensor C(d, f, j, k);
    tensor D(c, d, e, l);
    S(a, b, i, j) = sum(c, d, e, f, k, l)
        A(a,c,i,k) * B(b,e,f,l) * C(d,f,j,k) * D(c,d,e,l);
    """


@pytest.fixture
def fig1_program(fig1_source):
    return parse_program(fig1_source)


@pytest.fixture
def fig1_statement(fig1_program):
    return fig1_program.statements[0]


def pytest_sessionfinish(session, exitstatus):
    """No process outlives the suite: a worker a test started and never
    closed fails the run, named by pid, after a short grace period."""
    deadline = time.monotonic() + 2.0
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    left = multiprocessing.active_children()
    if not left:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    message = "processes left running: " + ", ".join(
        f"{child.name} (pid {child.pid})" for child in left
    )
    if reporter is not None:
        reporter.write_sep("=", message, red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
