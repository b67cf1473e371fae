"""Span tracer: self time, call counts, chain attribution, patch and restore."""

import time
import types

from spans import Tracer


class Box:
    @classmethod
    def make(cls, x):
        return cls, x

    def twice(self, x):
        return 2 * x


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.02))

    def body():
        leaf()
        leaf()
        time.sleep(0.01)

    outer = tracer.wrap("outer", body)
    tracer.chain = 3
    outer()
    layers = tracer.layers()
    assert layers["leaf"]["calls"] == 2
    assert layers["outer"]["calls"] == 1
    assert layers["leaf"]["self_ns"] == layers["leaf"]["total_ns"]
    assert layers["outer"]["self_ns"] == layers["outer"]["total_ns"] - layers["leaf"]["total_ns"]
    assert 0.01e9 <= layers["outer"]["self_ns"] < 0.03e9
    assert layers["outer"]["chains"] == {3}


def test_spans_outside_chains_are_not_attributed():
    tracer = Tracer()
    tracer.wrap("f", lambda: None)()
    assert tracer.layers()["f"]["chains"] == set()


def test_patch_and_restore_module_function_method_and_classmethod():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original_f = mod.f
    original_make = Box.__dict__["make"]
    tracer = Tracer()
    tracer.patch(mod, "f", "mod.f")
    tracer.patch(Box, "make", "Box.make")
    tracer.patch(Box, "twice", "Box.twice")
    assert mod.f(1) == 2
    assert Box.make(5) == (Box, 5)
    assert Box().twice(4) == 8
    tracer.restore()
    assert mod.f is original_f
    assert Box.__dict__["make"] is original_make
    assert {name: row["calls"] for name, row in tracer.layers().items()} == {
        "mod.f": 1, "Box.make": 1, "Box.twice": 1}
