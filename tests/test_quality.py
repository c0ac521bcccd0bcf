import math

import numpy as np
import pytest

from lrmt.errors import ProviderError
from lrmt.quality import EmbeddingClient


class TestEmbeddingParse:
    def test_well_formed(self):
        arr = EmbeddingClient._parse({"vectors": [[0.5, 1.0], [2.0, -1.0]], "dim": 2}, 2)
        assert arr.shape == (2, 2)
        assert np.array_equal(arr, [[0.5, 1.0], [2.0, -1.0]])

    @pytest.mark.parametrize("body", [[[0.5, 1.0]], "vectors", None, 3])
    def test_body_not_an_object(self, body):
        with pytest.raises(ProviderError):
            EmbeddingClient._parse(body, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(ProviderError):
            EmbeddingClient._parse({"vectors": [[0.5, 1.0], [bad, 1.0]], "dim": 2}, 2)

    @pytest.mark.parametrize("vectors", [[[0.5, 1.0], [2.0]], [["a", "b"]]])
    def test_rows_not_numeric(self, vectors):
        with pytest.raises(ProviderError):
            EmbeddingClient._parse({"vectors": vectors}, len(vectors))
