"""Every module of the package stays under 8192 parser tokens.

Past 8192 tokens CPython's parser doubles its token buffer while it compiles
a module.  When no bytecode cache is written, every process compiles the
package from source, and the largest module sets the import-time memory
peak: crossing the limit costs about 0.5 MB of peak resident memory on
every run whose peak is the import.  Split or trim a module before it gets
there.
"""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quiverkit"
LIMIT = 8192
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def _parser_tokens(path):
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIPPED)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_buffer(path):
    assert _parser_tokens(path) < LIMIT
