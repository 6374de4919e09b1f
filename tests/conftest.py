import json

import numpy as np
import pytest

from ncup import AlgebraShape, InputError, ModularFrame, cli

# The four algebras every randomized suite runs over: the scalars, the
# commutative 2-block case, a full matrix block, and a mixed sum.
ALGEBRAS = {
    "C": AlgebraShape((1,)),
    "C2": AlgebraShape((1, 1)),
    "M2": AlgebraShape((2,)),
    "C+M2": AlgebraShape((1, 2)),
}


@pytest.fixture(params=list(ALGEBRAS), ids=list(ALGEBRAS))
def shape(request):
    return ALGEBRAS[request.param]


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def error_through_reader(tmp_path, monkeypatch):
    """check(cls, payload, where) -> the message of cls.from_dict(payload, where=where).

    The payload is also written to the file `where` (in tmp_path) and read
    back by the CLI's JSON reader, which decodes vector payloads as it
    closes them; the file must fail with the same message as the dict.
    """
    monkeypatch.chdir(tmp_path)

    def check(cls, payload, where):
        with open(where, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(InputError) as direct:
            cls.from_dict(payload, where=where)
        with pytest.raises(InputError) as read:
            if cls is ModularFrame:
                cli._load_frame(where)
            else:
                cls.from_dict(cli._load_json(where), where=where)
        assert str(read.value) == str(direct.value)
        return str(direct.value)

    return check
