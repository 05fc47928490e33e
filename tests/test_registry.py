"""The driver contract's registry, without Ray: every SQL twin names a
registered query, every entry runs the query function of its own name,
and the flagship ``entry()`` runs a registered query."""

import __ray_entry__ as entrymod


def test_every_oracle_names_a_registered_query():
    qs = entrymod.queries()
    orphans = sorted(set(entrymod.oracle_sql()) - set(qs))
    assert not orphans, f"oracle_sql() twins with no query: {orphans}"
    # one name per function: no entry aliases another query
    aliases = sorted(k for k, fn in qs.items() if fn.__name__ != k)
    assert not aliases, f"entries named apart from their query: {aliases}"


def test_entry_runs_a_registered_query(monkeypatch):
    """``entry()`` is called with the query module swapped for a stub
    that returns the name of the query asked for, so nothing executes."""
    class Spy:
        def __getattr__(self, name):
            return lambda sf_dir: name

    monkeypatch.setattr(entrymod, "q", Spy())
    assert entrymod.entry() in entrymod.queries()


def test_import_leaves_the_query_module_for_first_use():
    """``import __ray_entry__`` in a fresh process does not load the
    query module (most of its import cost); ``queries()`` then loads it
    and returns the full registry."""
    import os
    import subprocess
    import sys

    code = ("import sys, __ray_entry__ as e\n"
            "print('geobuf_ray.pipelines.queries' in sys.modules)\n"
            "print(len(e.queries()))\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out.split() == ["False", str(len(entrymod.queries()))]
