"""Property: the command line's text parsers either return or raise
ConfigError, whatever the text. Any other exception would reach the user
as a traceback instead of one `error: bad-arguments:` line."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkfilter import ConfigError
from mkfilter.bench import parse_filter_spec
from mkfilter.cli import _parse_coeffs, _parse_levels
from mkfilter.noise import parse_noise_spec

PARSERS = {
    "noise": parse_noise_spec,
    "filter": parse_filter_spec,
    "levels": _parse_levels,
    "coeffs": lambda text: _parse_coeffs(text, 3, "--phase-drift"),
}

# arbitrary text, and text built from the characters specs are made of
# behind a valid or near-valid prefix, so most examples get past the kind
SPEC_CHARS = "0123456789:,.=+-_ eEinfatyuxlvpkdsorchwb"
PREFIXES = ("", "integral:", "field:", "bf:", "mkf:", "tv:", "cf:", "level=",
            "integral:level=", "field:cx=", "mkf:depth=", "1:", "10,")
TEXT = st.one_of(
    st.text(max_size=40),
    st.builds(lambda prefix, rest: prefix + rest, st.sampled_from(PREFIXES),
              st.text(alphabet=SPEC_CHARS, max_size=30)),
)


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=300, deadline=None)
@given(text=TEXT)
def test_parser_returns_or_raises_config_error(name, text):
    try:
        PARSERS[name](text)
    except ConfigError:
        pass
