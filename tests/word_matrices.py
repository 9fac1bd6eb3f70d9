"""The full extended-precision fold of a word's matrices at coordinate
arrays, which ``charvar.traces_at`` and ``charvar.trace_of_word`` replace
by a fold that forms only the diagonal of the last product.  The tests
hold those traces to ``np.trace`` of this fold bit for bit, and
``charvar.matrix_of`` to it.
"""

import numpy as np

from modsym import charvar


def matrices_at(s, t, theta, w) -> np.ndarray:
    """``charvar.matrix_of`` at every point of coordinate arrays, as a
    (..., 3, 3) extended-precision stack; each matrix is bit for bit the
    one ``matrix_of(rep_from_coords(Coordinates(s, t, theta)), w)`` gives.
    A word without ``a`` does not depend on the point and gives one 3x3
    matrix.

    Raises ParityError on words with odd inversion count.
    """
    table = charvar._letter_table(*charvar.generators_at(s, t, theta),
                                  charvar._R_LD, charvar._R_LD.T)
    return charvar._fold(table, charvar._even_word(w).syllables, np.eye(3, dtype=np.longdouble))
