import pytest

from endosign.exact import ExactValue


def test_zero_is_rejected():
    with pytest.raises(ValueError):
        ExactValue(0)


def test_a_record_writes_the_reduced_fraction():
    assert [str(ExactValue(v).value) for v in ("-6/8", "6/4", 5)] == ["-3/4", "3/2", "5"]
