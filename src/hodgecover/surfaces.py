"""Built-in test complexes: spheres, surfaces of all small topologies, and
graph cycles."""

from __future__ import annotations

from .complexes import SimplicialComplex, load_complex


def tetrahedron_boundary() -> SimplicialComplex:
    """Boundary of the 3-simplex: a 2-sphere with 4 triangles."""
    return load_complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def projective_plane() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the projective plane."""
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
             (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5)]
    return load_complex(faces)


def torus7() -> SimplicialComplex:
    """Minimal 7-vertex triangulated torus."""
    return load_complex([tuple(sorted((i + 1, (i + k) % 7 + 1,
                                       (i + 3) % 7 + 1)))
                         for i in range(7) for k in (1, 2)])


def _grid_faces(m: int, n: int, wrap):
    """Triangulated m x n grid of squares with a vertex identification map."""
    faces = []
    for i in range(m):
        for j in range(n):
            a, b = wrap(i, j), wrap(i + 1, j)
            c, d = wrap(i, j + 1), wrap(i + 1, j + 1)
            faces += [(a, b, d), (a, d, c)]
    return faces


def torus_grid(m: int = 3, n: int = 3) -> SimplicialComplex:
    """Torus as an m x n doubly periodic triangulated grid (m, n >= 3)."""
    def wrap(i, j):
        return (i % m) * n + (j % n)
    return load_complex(_grid_faces(m, n, wrap))


def klein_bottle(m: int = 4, n: int = 4) -> SimplicialComplex:
    """Klein bottle: periodic in j, orientation-reversing identification in i."""
    def wrap(i, j):
        if i == m:
            i = 0
            j = (-j) % n
        return i * n + (j % n)
    return load_complex(_grid_faces(m, n, wrap))


def genus2_surface() -> SimplicialComplex:
    """Closed orientable genus-2 surface: two tori glued along one triangle.

    Remove a face from each of two disjoint 7-vertex tori and identify the
    boundary triangles; the result has Euler characteristic -2.
    """
    t = torus7()
    faces1 = [f for f in t.cells[2] if f != (1, 2, 4)]
    shift = 7
    faces2 = [tuple(v + shift for v in f) for f in t.cells[2]
              if f != (1, 2, 4)]
    ident = {1 + shift: 1, 2 + shift: 2, 4 + shift: 4}
    faces2 = [tuple(sorted(ident.get(v, v) for v in f)) for f in faces2]
    return load_complex(faces1 + faces2)


def circle(n: int = 3) -> SimplicialComplex:
    """Cycle graph on n >= 3 vertices as a 1-dimensional complex."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    return load_complex([(i, (i + 1) % n) for i in range(n)])


FIXTURES = {
    "sphere": tetrahedron_boundary,
    "projective_plane": projective_plane,
    "torus": torus7,
    "torus_grid": torus_grid,
    "klein_bottle": klein_bottle,
    "genus2": genus2_surface,
    "circle": circle,
}
