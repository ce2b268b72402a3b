"""Native builds of the implicit backend's end point and shooting loop, equal to them bit for bit.

``translate`` renders the emitted Python of ``rk4_geo``, ``g`` and ``proj_x`` as
C99, statement for statement, with every operation parenthesised as Python's
parser groups it.  Two hand-written entry points use them and mirror the
implicit backend's Python: ``point_end``, one geodesic end point of
``_integrate_geo`` (``_passes``'s RK4 pass, coarse or the fine Richardson pair,
and ``_project_point``'s restoration), and ``log_map``, the whole Newton loop of
``_shoot`` with one end point per residual.  ``load`` compiles that C once per
kernel source and loads it with ``ctypes``.

The C performs the same IEEE double operations in the same order, and ``**``,
``sqrt``, ``sin``, ``cos`` and ``exp`` call the libm that Python's floats and
``math`` call, so a clean native result equals the Python kernel's:

* ``-ffp-contract=off`` keeps ``a*b + c`` two roundings, not one fused multiply-add;
* ``-fno-builtin`` keeps each libm call a call, so the compiler neither rewrites
  ``pow(x, 2.0)`` as ``x*x`` nor evaluates a call its own way;
* there is no ``-ffast-math``, which would reorder sums and drop inf and nan.

The loop's three numpy operations whose bits depend on the library, the norm's
``ndarray.dot``, the Newton step's ``np.linalg.lstsq`` and ``c @ basis`` of two
rows and more, are calls of the very routines numpy calls: ``numpy_blas`` finds
ddot, dgelsd and dgemv through the numpy extensions that call them, in numpy's
own BLAS library, and the C passes the arguments numpy passes.  A BLAS kernel
picks its own summation order and a closed-form solve rounds differently, so
nothing else gives numpy's bits.  When those routines are not found, or a probe
at load sees the C's dot, lstsq or one-row ``c @ basis`` differ from numpy's on
fixed inputs, there is no native log map (``Kernels.shoots``); when only the
``c @ basis`` of two rows and more differs, there is none for manifolds of
dimension 2 and more.

An end point is clean when its input is finite and it raises none of the
divide-by-zero, invalid and overflow flags; otherwise ``point_end`` returns nonzero
and ``Kernels.point`` returns None.  From a finite state every operation that
Python floats would raise on (a division by zero, an overflowing or complex power,
a math domain or range error) raises one of those flags, so callers repeat exactly
those calls in Python, and every error and numpy fallback stays as it was.  The
log map has two exits: it converges, or it hands back, and ``_log`` runs the Python
loop from the start, which raises every error itself.

Nothing here is an option: a source with a construct the translator does not
know, a missing, failing or slow compiler and a library that will not load all
make ``load`` return None, without a warning, and the Python kernels run.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import hashlib
import importlib
import os
import shlex
import string
import subprocess
import sysconfig
import tempfile

import numpy as np

FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120

_LIBM = {"sqrt": "sqrt", "sin": "sin", "cos": "cos", "exp": "exp", "abs": "fabs"}
_CONSTANTS = {"inf": "INFINITY", "nan": "NAN"}
_ARITH = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_COMPARE = {ast.Lt: "<", ast.Gt: ">"}

_PRELUDE = """\
#include <fenv.h>
#include <math.h>

#define RAISED (FE_DIVBYZERO | FE_INVALID | FE_OVERFLOW)

static int all_finite(const double *x, int width)
{
    for (int i = 0; i < width; i++)
        if (!isfinite(x[i]))
            return 0;
    return 1;
}

/* 0 when the call raised no flag of RAISED and its result is finite; the
   caller's flags are restored either way */
static int settle(const fexcept_t *saved, const double *out, int width)
{
    int bad = fetestexcept(RAISED) || !all_finite(out, width);
    fesetexceptflag(saved, FE_ALL_EXCEPT);
    return bad;
}
"""

# numpy's BLAS and LAPACK as numpy calls them, through the addresses in ``struct blas``
_BLAS = """
#include <float.h>
#include <stdlib.h>

/* numpy's own BLAS and LAPACK: $LIBRARY
   ($SYMBOLS); an integer there is 64 bits (ILP64) */
typedef long long bint;
struct blas {
    double (*dot)(bint, const double *, bint, const double *, bint);
    void (*gelsd)(const bint *, const bint *, const bint *, double *, const bint *, double *,
                  const bint *, double *, const double *, bint *, double *, const bint *,
                  bint *, bint *);
    void (*gemv)(int, int, bint, bint, double, const double *, bint, const double *, bint,
                 double, double *, bint);
};

/* a.dot(b) of two vectors of n doubles, as numpy's DOUBLE_dot: 0.0 plus one ddot */
double blas_dot(const struct blas *blas, long n, const double *a, const double *b)
{
    return 0.0 + blas->dot(n, a, 1, b, 1);
}

/* c @ basis, c of dim doubles and basis dim x d in rows, as numpy's matmul: for
   one row its loop without BLAS, a product added to 0.0; for more, one dgemv of
   the transposed row-major basis */
void blas_combine(const struct blas *blas, long dim, long d, const double *c,
                  const double *basis, double *out)
{
    if (dim == 1) {
        for (long i = 0; i < d; i++)
            out[i] = 0.0 + (c[0] * basis[i]);
        return;
    }
    blas->gemv(101 /* CblasRowMajor */, 112 /* CblasTrans */, dim, d, 1.0, basis, d, c, 1,
               0.0, out, 1);
}

/* np.linalg.lstsq(a, b, rcond=None)[0] into the n values x, for an m x n matrix a
   by columns, m > n, and m values b, all finite; 0, or 1 where dgelsd fails.  As
   numpy's lstsq: dgelsd on copies of a and b, lda = ldb = m, rcond = eps * m, and
   the workspace its query asks for; the flags raised inside are dropped, as numpy
   clears them */
int blas_lstsq(const struct blas *blas, long m, long n, const double *a, const double *b,
               double *x)
{
    bint rows = m, cols = n, nrhs = 1, lwork = -1, rank, info, iquery;
    double rcond = DBL_EPSILON * (double)m, query;
    double *copy = malloc(sizeof(double) * (size_t)(m * n + m + n)), *work = NULL;
    int bad;
    fexcept_t flags;
    if (copy == NULL)
        return 1;
    for (long i = 0; i < m * n; i++)
        copy[i] = a[i];
    for (long i = 0; i < m; i++)
        copy[m * n + i] = b[i];
    fegetexceptflag(&flags, FE_ALL_EXCEPT);
    blas->gelsd(&rows, &cols, &nrhs, copy, &rows, copy + m * n, &rows, copy + m * n + m,
                &rcond, &rank, &query, &lwork, &iquery, &info);
    if (info == 0)
        work = malloc((size_t)query * sizeof(double) + (size_t)iquery * sizeof(bint));
    if (work != NULL) {
        lwork = (bint)query;
        blas->gelsd(&rows, &cols, &nrhs, copy, &rows, copy + m * n, &rows, copy + m * n + m,
                    &rcond, &rank, work, &lwork, (bint *)(work + (size_t)query), &info);
        for (long i = 0; i < n; i++)
            x[i] = copy[m * n + i];
    }
    fesetexceptflag(&flags, FE_ALL_EXCEPT);
    bad = work == NULL || info != 0;
    free(work);
    free(copy);
    return bad;
}
"""

# ``ImplicitBackend._integrate_geo``'s end point: ``_passes``'s RK4 pass of ``rk4_geo``
# and ``_project_point``'s restoration with the kernels ``proj_x`` and ``g``
_POINT = """
enum { AMBIENT = $AMBIENT, CONSTRAINTS = $CONSTRAINTS, TANGENT = $TANGENT };

/* _max_abs: the largest absolute value, a NaN staying the maximum */
static double max_abs(const double *v, int n)
{
    double worst = 0.0;
    for (int i = 0; i < n; i++) {
        double a = fabs(v[i]);
        if (a > worst || a != a)
            worst = a;
    }
    return worst;
}

/* the end point from state = (x, v) at speed = |v| > 0: n steps of rk4_geo, with
   the fine Richardson pair as _passes, then up to $RESTORE_MAX_ITER proj_x steps that stop
   once max |g| < $RESTORE_TOL; 0, or 1 where the restoration leaves max |g| above
   $FEASIBILITY_TOL or the steps would not fit a long */
static int point(const double *state, double speed, int fine, double *out)
{
    double a[2 * AMBIENT], b[2 * AMBIENT], gv[CONSTRAINTS], resid = 0.0;
    double steps = ceil(speed * (fine ? $FINE_STEPS_PER_UNIT : $COARSE_STEPS_PER_UNIT));
    long n;
    if (!(steps < 1e9))
        return 1;
    n = (long)steps;
    if (n < (fine ? 8 : 6))
        n = fine ? 8 : 6;
    rk4_geo(state, n, 1.0 / n, a);
    if (fine) {
        rk4_geo(state, 2 * n, 0.5 / n, b);
        for (int i = 0; i < AMBIENT; i++)
            a[i] = ((16.0 * b[i]) - a[i]) / 15.0;
    }
    for (int k = 0; k < $RESTORE_MAX_ITER; k++) {
        proj_x(a, a);
        g(a, gv);
        resid = max_abs(gv, CONSTRAINTS);
        if (resid < $RESTORE_TOL)
            break;
    }
    for (int i = 0; i < AMBIENT; i++)
        out[i] = a[i];
    return !(resid <= $FEASIBILITY_TOL);
}

/* _integrate_geo's end point into out: 0, or nonzero where Python must compute it */
int point_end(const double *state, double speed, int fine, double *out)
{
    fexcept_t saved;
    int bad;
    if (!all_finite(state, 2 * AMBIENT))
        return 1;
    fegetexceptflag(&saved, FE_ALL_EXCEPT);
    feclearexcept(FE_ALL_EXCEPT);
    bad = point(state, speed, fine, out);
    return settle(&saved, out, AMBIENT) | bad;
}
"""

# ``ImplicitBackend._shoot``, statement for statement
_SHOOT = """
static double norm(const struct blas *blas, long n, const double *a)
{
    return sqrt(blas_dot(blas, n, a, a));
}

/* resid(c, fine) into r: the end point of the geodesic from x at c @ basis, as
   _integrate_geo, minus y; 0, or 1 where Python must compute it */
static int residual(const struct blas *blas, const double *x, const double *y,
                    const double *basis, const double *c, int fine, double *r)
{
    double state[2 * AMBIENT], end[AMBIENT], speed;
    blas_combine(blas, TANGENT, AMBIENT, c, basis, state + AMBIENT);
    speed = norm(blas, AMBIENT, state + AMBIENT);
    for (int i = 0; i < AMBIENT; i++)
        state[i] = end[i] = x[i];
    if (speed != 0.0 && point(state, speed, fine, end))
        return 1;
    for (int i = 0; i < AMBIENT; i++)
        r[i] = end[i] - y[i];
    return 0;
}

/* the shooting loop from in = (x, y, basis, c, scale): 0 where it converges, with out
   = c; 1 where it hands back, and Python runs the whole loop again to raise its error:
   after $SHOOTING_MAX_ITER iterations, when the last residual fails the final test, on a
   raised flag, a failed restoration or dgelsd, or a non-finite input.  So the C keeps
   no best iterate: only the Python loop reports it */
int log_map(const struct blas *blas, const double *in, double *out)
{
    const double *x = in, *y = in + AMBIENT, *basis = in + 2 * AMBIENT;
    const double scale = in[2 * AMBIENT + TANGENT * AMBIENT + TANGENT];
    double c[TANGENT], cp[TANGENT], cand[TANGENT], step[TANGENT];
    double r[AMBIENT], r_cand[AMBIENT], minus_r[AMBIENT], jac[AMBIENT * TANGENT];
    double rn, rn_cand, eps, damp;
    int fine = 0, have_jac = 0, it, k, bad;
    fexcept_t saved;
    if (!all_finite(in, 2 * AMBIENT + TANGENT * AMBIENT + TANGENT + 1))
        return 1;
    fegetexceptflag(&saved, FE_ALL_EXCEPT);
    feclearexcept(FE_ALL_EXCEPT);
    for (int j = 0; j < TANGENT; j++)
        c[j] = in[2 * AMBIENT + TANGENT * AMBIENT + j];
    if (residual(blas, x, y, basis, c, 0, r))
        goto hand_back;
    rn = norm(blas, AMBIENT, r);
    for (it = 0; it < $SHOOTING_MAX_ITER; it++) {
        if (fine && rn <= $SHOOTING_TOL * scale)
            break;
        if (!fine && rn <= 1e-08 * scale) {
            fine = 1;
            if (residual(blas, x, y, basis, c, 1, r))
                goto hand_back;
            rn = norm(blas, AMBIENT, r);
            continue;
        }
        if (!have_jac) {
            double size = norm(blas, TANGENT, c);
            eps = 1e-06 * (size > 1.0 ? size : 1.0);
            for (int j = 0; j < TANGENT; j++) {
                for (int i = 0; i < TANGENT; i++)
                    cp[i] = c[i];
                cp[j] = c[j] + eps;
                if (residual(blas, x, y, basis, cp, fine, r_cand))
                    goto hand_back;
                for (int i = 0; i < AMBIENT; i++)
                    jac[j * AMBIENT + i] = (r_cand[i] - r[i]) / eps;
            }
            have_jac = 1;
        }
        for (int i = 0; i < AMBIENT; i++)
            minus_r[i] = -r[i];
        /* a raised flag hands back anyway; without one, jac and r are finite */
        if (fetestexcept(RAISED) || blas_lstsq(blas, AMBIENT, TANGENT, jac, minus_r, step))
            goto hand_back;
        damp = 1.0;
        for (k = 0; k < 8; k++) {
            for (int j = 0; j < TANGENT; j++)
                cand[j] = c[j] + (damp * step[j]);
            if (residual(blas, x, y, basis, cand, fine, r_cand))
                goto hand_back;
            rn_cand = norm(blas, AMBIENT, r_cand);
            if (rn_cand < rn) {
                for (int j = 0; j < TANGENT; j++)
                    c[j] = cand[j];
                for (int i = 0; i < AMBIENT; i++)
                    r[i] = r_cand[i];
                rn = rn_cand;
                break;
            }
            damp *= 0.5;
        }
        if (k == 8) {
            have_jac = 0;
            if (fine)
                break;
            fine = 1;
            if (residual(blas, x, y, basis, c, 1, r))
                goto hand_back;
            rn = norm(blas, AMBIENT, r);
        }
    }
    bad = it == $SHOOTING_MAX_ITER || rn > (($SHOOTING_TOL * scale) * 10.0);
    for (int j = 0; j < TANGENT; j++)
        out[j] = c[j];
    return settle(&saved, out, TANGENT) | bad;
hand_back:
    fesetexceptflag(&saved, FE_ALL_EXCEPT);
    return 1;
}
"""


class _Unknown(Exception):
    """A construct ``translate`` does not render."""


class _Function:
    """C for one emitted kernel: ``text`` and its state ``width``.

    A loop ``def NAME(state, n, h)`` becomes ``NAME(state, n, h, out)``: ``state``
    is a ``const double *`` unpacked by one tuple assignment, ``n`` a ``long``
    read only as a ``range`` bound, and it returns a tuple of ``width`` values.
    A kernel ``def NAME(x1, ..., xd)`` of doubles, such as ``g`` and ``proj_x``,
    becomes ``NAME(in, out)``, reading its arguments from ``in`` (``width`` of
    them) and returning a tuple of ``returned`` values.  Every argument and
    assigned name is a ``double`` (``v_NAME``), a ``for`` variable a ``long``
    counter, and the returned tuple is written to ``out``.
    """

    def __init__(self, node):
        a = node.args
        params = [p.arg for p in a.args]
        if (a.posonlyargs or a.vararg or a.kwonlyargs or a.kwarg or a.defaults
                or node.decorator_list):
            raise _Unknown(node.name)
        self.loop = loop = params == ["state", "n", "h"]
        self.doubles = {"h"} if loop else set(params)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                self.doubles |= {t.id for t in ast.walk(sub) if isinstance(t, ast.Name)
                                 and isinstance(t.ctx, ast.Store)}
        if loop and self.doubles & {"state", "n"}:
            raise _Unknown(f"{node.name} assigns to an argument")
        self.width = None if loop else len(params)
        self.returned = None
        body = self.block(node.body, "    ", in_loop=False)
        if self.width is None or self.returned is None or loop and self.returned != self.width:
            raise _Unknown(f"{node.name} does not return its state's width")
        if loop:
            head = (f"static void {node.name}"
                    "(const double *state, long v_n, double v_h, double *out)")
            names, unpack = sorted(self.doubles - {"h"}), []
        else:
            head = f"static void {node.name}(const double *in, double *out)"
            names = sorted(self.doubles)
            unpack = [f"    v_{p} = in[{i}];" for i, p in enumerate(params)]
        self.text = "\n".join([
            head, "{", *[f"    double v_{name};" for name in names], *unpack, *body, "}", "",
        ])

    def block(self, stmts, ind, in_loop):
        lines = []
        for s in stmts:
            lines += self.statement(s, ind, in_loop)
        return lines

    def statement(self, s, ind, in_loop):
        if isinstance(s, ast.Assign) and len(s.targets) == 1:
            target = s.targets[0]
            if isinstance(target, ast.Name):
                return [f"{ind}v_{target.id} = {self.expr(s.value)};"]
            unpack = isinstance(s.value, ast.Name) and s.value.id == "state"
            if (unpack and self.width is None and isinstance(target, ast.Tuple)
                    and all(isinstance(t, ast.Name) for t in target.elts)):
                self.width = len(target.elts)
                return [f"{ind}v_{t.id} = state[{i}];" for i, t in enumerate(target.elts)]
        if isinstance(s, ast.For) and isinstance(s.target, ast.Name) and not s.orelse:
            i, it = s.target.id, s.iter
            ranged = (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                      and it.func.id == "range" and len(it.args) == 1 and not it.keywords)
            if ranged and i not in self.doubles:
                bound = it.args[0]
                if isinstance(bound, ast.Name) and bound.id == "n" and self.loop:
                    stop = "v_n"
                elif isinstance(bound, ast.Constant) and type(bound.value) is int:
                    stop = repr(bound.value)
                else:
                    raise _Unknown(ast.unparse(it))
                head = f"{ind}for (long v_{i} = 0; v_{i} < {stop}; v_{i}++) {{"
                return [head, *self.block(s.body, ind + "    ", in_loop=True), f"{ind}}}"]
        if isinstance(s, ast.If) and not s.orelse:
            body = self.block(s.body, ind + "    ", in_loop)
            return [f"{ind}if {self.condition(s.test)} {{", *body, f"{ind}}}"]
        if isinstance(s, ast.Break) and in_loop:
            return [f"{ind}break;"]
        if isinstance(s, ast.Return) and isinstance(s.value, ast.Tuple):
            if self.returned not in (None, len(s.value.elts)):
                raise _Unknown("returns of two widths")
            self.returned = len(s.value.elts)
            out = [f"{ind}out[{i}] = {self.expr(e)};" for i, e in enumerate(s.value.elts)]
            return out + [f"{ind}return;"]
        raise _Unknown(ast.unparse(s))

    def expr(self, e):
        """A double-valued expression, parenthesised as the AST groups it."""
        if isinstance(e, ast.BinOp):
            lhs, rhs = self.expr(e.left), self.expr(e.right)
            if isinstance(e.op, ast.Pow):
                return f"pow({lhs}, {rhs})"
            if type(e.op) in _ARITH:
                return f"({lhs} {_ARITH[type(e.op)]} {rhs})"
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            return f"(-{self.expr(e.operand)})"
        if isinstance(e, ast.Name) and e.id in self.doubles:
            return f"v_{e.id}"
        if isinstance(e, ast.Name) and e.id in _CONSTANTS:
            return _CONSTANTS[e.id]
        if isinstance(e, ast.Constant) and type(e.value) is float:
            return repr(e.value)
        if (isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and e.func.id in _LIBM
                and e.func.id not in self.doubles and len(e.args) == 1 and not e.keywords):
            return f"{_LIBM[e.func.id]}({self.expr(e.args[0])})"
        raise _Unknown(ast.unparse(e))

    def condition(self, e):
        """A test: one ``<`` or ``>`` of doubles, or an ``and`` of tests."""
        if isinstance(e, ast.Compare) and len(e.ops) == 1 and type(e.ops[0]) in _COMPARE:
            op = _COMPARE[type(e.ops[0])]
            return f"({self.expr(e.left)} {op} {self.expr(e.comparators[0])})"
        if isinstance(e, ast.BoolOp) and isinstance(e.op, ast.And):
            return "(" + " && ".join(map(self.condition, e.values)) + ")"
        raise _Unknown(ast.unparse(e))


def translate(src, library):
    """(C source, (d, m)) for an emitted kernel source whose ``g`` and ``proj_x``
    take d variables and give m constraints, or None when ``rk4_geo``, ``g`` or
    ``proj_x`` is missing or holds a construct not rendered here.

    The C holds ``point_end``, ``_integrate_geo``'s end point; where ``library``
    names numpy's BLAS library (``numpy_blas``), it adds ``log_map``, ``_shoot``'s
    loop, and the BLAS and LAPACK calls the probe in ``Kernels`` checks.
    """
    from . import implicit  # imported here: implicit imports this module on first use

    defs = {f.name: f for f in ast.parse(src).body if isinstance(f, ast.FunctionDef)}
    try:
        rk4_geo, g, proj_x = (_Function(defs[name]) for name in ("rk4_geo", "g", "proj_x"))
    except (KeyError, _Unknown):
        return None
    d, m = g.width, g.returned
    if proj_x.width != d or proj_x.returned != d:
        return None  # g and proj_x of different points
    constants = {
        "AMBIENT": d, "CONSTRAINTS": m, "TANGENT": d - m,
        "FINE_STEPS_PER_UNIT": float(implicit.FINE_STEPS_PER_UNIT),
        "COARSE_STEPS_PER_UNIT": float(implicit.COARSE_STEPS_PER_UNIT),
        "RESTORE_MAX_ITER": implicit.RESTORE_MAX_ITER, "RESTORE_TOL": implicit.RESTORE_TOL,
        "FEASIBILITY_TOL": implicit.ImplicitBackend.feasibility_tol,
        "SHOOTING_TOL": implicit.SHOOTING_TOL, "SHOOTING_MAX_ITER": implicit.SHOOTING_MAX_ITER,
        "LIBRARY": str(library).replace("*/", "*_/"),  # a path inside a C comment
        "SYMBOLS": ", ".join(name for _, name in BLAS_SYMBOLS),
    }
    constants = {k: v if isinstance(v, str) else repr(v) for k, v in constants.items()}
    parts = [_PRELUDE, rk4_geo.text, g.text, proj_x.text,
             string.Template(_POINT).substitute(constants)]
    if library is not None:
        parts += [string.Template(t).substitute(constants) for t in (_BLAS, _SHOOT)]
    return "\n".join(parts), (d, m)


_DOUBLES = ctypes.POINTER(ctypes.c_double)


class _Blas(ctypes.Structure):
    """The C's ``struct blas``: the addresses of numpy's ddot, dgelsd and dgemv."""

    _fields_ = [("dot", ctypes.c_void_p), ("gelsd", ctypes.c_void_p), ("gemv", ctypes.c_void_p)]


class Kernels:
    """The entry points of one loaded library.

    ``load`` memoizes one instance per kernel source, which every backend with
    the same equalities shares, from any thread, and ``ctypes`` releases the GIL
    during a call: so nothing here is mutable, and each call allocates its own
    arrays.

    ``shoots`` tells whether ``log`` runs: the library holds ``log_map``, and
    ``_probe`` found its BLAS and LAPACK calls equal to numpy's.
    """

    def __init__(self, lib, shape, blas):
        self._lib = lib  # the entry points below live as long as the library
        d, m = shape
        self._point = lib.point_end
        self._point.argtypes = (_DOUBLES, ctypes.c_double, ctypes.c_int, _DOUBLES)
        self._point.restype = ctypes.c_int
        self._state, self._end_point = ctypes.c_double * (2 * d), ctypes.c_double * d
        self.shoots = False
        if blas is None:
            return
        self._blas = _Blas(*blas)
        for name, argtypes, restype in (
            ("log_map", (ctypes.POINTER(_Blas), _DOUBLES, _DOUBLES), ctypes.c_int),
            ("blas_dot", (ctypes.POINTER(_Blas), ctypes.c_long, _DOUBLES, _DOUBLES),
             ctypes.c_double),
            ("blas_combine", (ctypes.POINTER(_Blas), ctypes.c_long, ctypes.c_long, _DOUBLES,
                              _DOUBLES, _DOUBLES), None),
            ("blas_lstsq", (ctypes.POINTER(_Blas), ctypes.c_long, ctypes.c_long, _DOUBLES,
                            _DOUBLES, _DOUBLES), ctypes.c_int),
        ):
            entry = getattr(lib, name)  # memoized by name, unlike lib[name]
            entry.argtypes, entry.restype = argtypes, restype
        dim = d - m
        self._log_in = ctypes.c_double * (2 * d + dim * d + dim + 1)
        self._log_out = ctypes.c_double * dim
        self._log_shapes = ((d,), (d,), (dim, d), (dim,))
        core, gemv = _probe(lib, self._blas)
        self.shoots = core and (dim == 1 or gemv)

    def point(self, state, speed, fine):
        """``_integrate_geo``'s end point from ``state`` = (x, v) at ``speed`` = |v| > 0,
        as a list of floats; None where the call was not clean, and Python must
        compute it."""
        if len(state) != self._state._length_:  # ctypes would zero-pad a short state
            raise ValueError(f"a state of {self._state._length_} values expected, not {len(state)}")
        out = self._end_point()
        return None if self._point(self._state(*state), speed, fine, out) else out[:]

    def log(self, xc, yc, basis, c, scale):
        """The components of ``log_map`` from the chord seed ``c`` where the loop
        converges; None where it hands the loop back to ``_shoot``, and without a
        native log map (``shoots``)."""
        if not self.shoots:
            return None
        shapes = tuple(np.shape(a) for a in (xc, yc, basis, c))
        if shapes != self._log_shapes:  # ctypes would zero-pad a short array
            raise ValueError(f"arrays of shapes {self._log_shapes} expected, not {shapes}")
        out = self._log_out()
        args = self._log_in(*xc.tolist(), *yc.tolist(), *basis.ravel().tolist(), *c.tolist(), scale)
        return None if self._lib.log_map(self._blas, args, out) else np.array(out[:])


def _probe(lib, blas):
    """(whether the C's dot and lstsq equal numpy's ``ndarray.dot`` and
    ``np.linalg.lstsq``, and its ``c @ basis`` numpy's for one row, on fixed
    inputs; whether its ``c @ basis`` does for two rows and more), bit for bit."""
    rng = np.random.default_rng(20241)
    core = gemv = True
    for m, n in ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3), (6, 4)):
        for scale in (1e-9, 1.0, 1e3):
            a = rng.standard_normal((m, n)) * scale
            b = rng.standard_normal(m)
            c = rng.standard_normal(n) * scale
            basis = np.linalg.svd(rng.standard_normal((m, m)))[2][:n]
            x = (ctypes.c_double * n)()
            bad = lib.blas_lstsq(blas, m, n, _doubles(a.T.ravel()), _doubles(b), x)
            core &= (not bad and x[:] == np.linalg.lstsq(a, b, rcond=None)[0].tolist()
                     and lib.blas_dot(blas, m, _doubles(b), _doubles(b)) == b.dot(b))
            combined = (ctypes.c_double * m)()
            lib.blas_combine(blas, n, m, _doubles(c), _doubles(basis.ravel()), combined)
            if n == 1:
                core &= combined[:] == (c @ basis).tolist()
            else:
                gemv &= combined[:] == (c @ basis).tolist()
    return core, gemv


def _doubles(a):
    return (ctypes.c_double * a.size)(*a.tolist())


#: the routines ``log_map`` calls, as numpy's scipy-openblas64 build names them,
#: each with the numpy extension that calls it: ``ndarray.dot``, ``np.linalg.lstsq``
#: and ``@``
BLAS_SYMBOLS = (("numpy._core._multiarray_umath", "scipy_cblas_ddot64_"),
                ("numpy.linalg._umath_linalg", "scipy_dgelsd_64_"),
                ("numpy._core._multiarray_umath", "scipy_cblas_dgemv64_"))


class _DlInfo(ctypes.Structure):
    """``Dl_info``, which ``dladdr`` fills: the file and symbol at an address."""

    _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]


def numpy_blas():
    """(path of numpy's BLAS library, addresses of ``BLAS_SYMBOLS`` in it), or None.

    Each symbol is looked up through the extension that calls it, which ``dlopen``
    hands back as loaded (``RTLD_NOLOAD``): so the lookup finds the very routine
    numpy calls, and never loads a second library.  None when a symbol is not
    found or the three are not from one library.
    """
    try:
        loaded = os.RTLD_NOLOAD | os.RTLD_LAZY  # no such flags, no dlopen: not POSIX
        dladdr = ctypes.CDLL(None).dladdr
        dladdr.argtypes, dladdr.restype = (ctypes.c_void_p, ctypes.POINTER(_DlInfo)), ctypes.c_int
        addresses, paths = [], set()
        for module, name in BLAS_SYMBOLS:
            handle = ctypes.CDLL(importlib.import_module(module).__file__, mode=loaded)
            address = ctypes.cast(handle[name], ctypes.c_void_p).value
            info = _DlInfo()
            if not dladdr(address, info) or not info.fname:
                return None
            addresses.append(address)
            paths.add(os.path.realpath(os.fsdecode(info.fname)))
    except (ImportError, OSError, AttributeError):  # no such module, library or symbol
        return None
    return (paths.pop(), tuple(addresses)) if len(paths) == 1 else None


@functools.cache
def load(src):
    """The native ``Kernels`` of an emitted kernel source, or None.

    Built on the first call for each source in a process and memoized; the
    shared object is cached on disk under ``cache_dir()``, one per C source and
    command, named by their sha256.  The C source names numpy's BLAS library
    and the symbols it calls, so they enter that name too.  Without a usable
    cache directory it is built in a temporary one, removed as soon as the
    library is loaded, so nothing is left behind for ``atexit`` to remove: a
    process forked by ``studies._fork_map`` leaves without running it.
    """
    blas = numpy_blas()
    translated = translate(src, None if blas is None else blas[0])
    if translated is None:
        return None
    folder = cache_dir()
    if folder is not None:
        return _load(translated, blas, folder)
    try:
        with tempfile.TemporaryDirectory(prefix="manisweep-", ignore_cleanup_errors=True) as tmp:
            return _load(translated, blas, tmp)
    except OSError:  # no temporary directory can be made
        return None


def _load(translated, blas, folder):
    csrc, shape = translated
    path = _shared_object(csrc, folder)
    if path is None:
        return None
    try:
        return Kernels(ctypes.CDLL(path), shape, None if blas is None else blas[1])
    except (OSError, AttributeError):  # unloadable, or an entry point is missing
        return None


def compiler():
    """The C compiler's command: ``sysconfig``'s ``CC``, else ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]


def cache_dir():
    """``$XDG_CACHE_HOME/manisweep`` (default ``~/.cache/manisweep``), created 0700.

    None when that directory is not the user's own, or its group or others may
    write it, or it cannot be made.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "manisweep")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return None
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return path


def _shared_object(csrc, folder):
    """Path of the shared object built from ``csrc`` in ``folder``, built now if not
    there; None if the compiler is missing, fails or times out."""
    command = [*compiler(), *FLAGS]
    digest = hashlib.sha256("\0".join([*command, csrc]).encode()).hexdigest()
    path = os.path.join(folder, f"{digest}.so")
    if os.path.exists(path):
        return path
    try:
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=folder)
    except OSError:  # nowhere to write the source, e.g. a read-only or full disk
        return None
    so_path = c_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(csrc)
        done = subprocess.run([*command, "-o", so_path, c_path, "-lm"], capture_output=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
        os.replace(so_path, path)  # whole, or not there: a reader never sees a partial file
        return path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        for leftover in (c_path, so_path):
            try:
                os.remove(leftover)
            except FileNotFoundError:
                pass
