"""Shared fixtures."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from fourier_kv import spectral


@pytest.fixture
def table_products():
    """A context manager that yields a list of the right operand of every product
    the batch fold takes with a trig-table run's columns, as it takes them.

    The fold projects spans of a block onto :meth:`spectral._Run.run_columns`
    by plain products; while the manager is open those columns come back as
    an array that records each product's operand and computes it as before.
    """

    @contextlib.contextmanager
    def recording():
        products = []

        class Columns(np.ndarray):
            def __matmul__(self, other):
                products.append(other)
                return np.asarray(self) @ other

        run_columns = spectral._Run.run_columns
        with mock.patch.object(spectral._Run, "run_columns",
                               lambda plan: run_columns(plan).view(Columns)):
            yield products

    return recording
