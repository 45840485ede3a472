"""Every mutant of ``mutants.py`` still applies to the library: its
substitution's text is once in its function's source, so a library edit
that orphans a mutant fails here rather than only in the runner, which
stays out of CI."""

import pytest

import mutants


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_substitution_text_is_once_in_its_function(name):
    *_, source = mutants.locate(name)
    assert source.count(mutants.MUTANTS[name][2]) == 1
