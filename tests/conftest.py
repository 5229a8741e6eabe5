import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sumrank.gf import make_field  # noqa: E402


@pytest.fixture(autouse=True)
def int_str_digits():
    """Each test starts at CPython's default int->str cap, and a cap the test sets itself (an
    oracle's own `str()` in `test_write_json_matches_json_dumps` and the sphere-packing and
    `bounds volume` digit tests lifts it) is undone after it, so no test runs on another's
    cap.  No sumrank code sets the cap; `test_main_leaves_the_str_digit_cap_as_it_found_it`
    holds `cli.main` to that."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.fixture(scope="session")
def f2():
    return make_field(2, [1])


@pytest.fixture(scope="session")
def f3():
    return make_field(3, [1])


@pytest.fixture(scope="session")
def f4():
    return make_field(2, [2])


@pytest.fixture(scope="session")
def f8():
    return make_field(2, [3])


@pytest.fixture(scope="session")
def f9():
    return make_field(3, [2])


@pytest.fixture(scope="session")
def f16_tower():
    return make_field(2, [2, 2])
