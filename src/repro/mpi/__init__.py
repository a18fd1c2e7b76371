"""MPI-1 API over the MPICH2 stack.

Rank programs are generator functions receiving an
:class:`~repro.mpi.runner.MpiContext`; every blocking call is used
with ``yield from``:

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send({"hello": 1}, dest=1)
        else:
            obj, status = yield from mpi.recv(source=0)

Launch with :func:`run_mpi`.
"""

from ..mpich2.adi3 import ANY_SOURCE, ANY_TAG, MpiError, Request, \
    TruncateError
from .comm import Communicator
from .datatypes import (BAND, BOR, BXOR, LAND, LOR, MAX, MAXLOC, MIN,
                        MINLOC, PROD, SUM, Op)
from .derived import (CHAR, COMPLEX128, DOUBLE, FLOAT32, FLOAT64,
                      INT32, INT64, Datatype)
from .runner import (DESIGNS, MpiContext, World, build_world, run_mpi,
                     run_world)
from .status import Status

__all__ = [
    "run_mpi", "run_world", "build_world", "DESIGNS",
    "MpiContext", "World",
    "Communicator", "Status", "Request",
    "ANY_SOURCE", "ANY_TAG", "MpiError", "TruncateError",
    "Op", "SUM", "PROD", "MAX", "MIN", "LAND", "LOR", "BAND", "BOR",
    "BXOR", "MAXLOC", "MINLOC",
    "Datatype", "CHAR", "INT32", "INT64", "FLOAT32", "FLOAT64",
    "DOUBLE", "COMPLEX128",
]
