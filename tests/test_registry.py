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
