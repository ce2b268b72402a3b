"""Native builds of the implicit backend's RK4 kernels, equal to them bit for bit.

``translate`` renders the emitted Python of ``rk4_geo`` and ``rk4_par`` as C99,
statement for statement, with every operation parenthesised as Python's parser
groups it, and adds one entry point per loop, ``NAME_end(state, n, fine, out)``:
``n`` steps of ``1/n`` and, when ``fine`` is set, also ``2n`` steps of ``0.5/n``
and their Richardson combine ``(16.0*b - a)/15.0``, as ``implicit._passes``.
``load`` compiles that C once per kernel source and loads it with ``ctypes``.

The C performs the same IEEE double operations in the same order, and ``**``,
``sqrt``, ``sin``, ``cos`` and ``exp`` call the libm that Python's floats and
``math`` call, so a clean native result equals the Python kernel's:

* ``-ffp-contract=off`` keeps ``a*b + c`` two roundings, not one fused multiply-add;
* ``-fno-builtin`` keeps each libm call a call, so the compiler neither rewrites
  ``pow(x, 2.0)`` as ``x*x`` nor evaluates a call its own way;
* there is no ``-ffast-math``, which would reorder sums and drop inf and nan.

A call is clean when its state is finite and it raises none of the divide-by-zero,
invalid and overflow flags; otherwise the entry point returns nonzero and
``Kernels`` returns None.  From a finite state every operation that Python floats
would raise on (a division by zero, an overflowing or complex power, a math domain
or range error) raises one of those flags, so callers repeat exactly those calls
through the Python kernel, and every error and numpy fallback stays as it was.

Nothing here is an option: a source with a construct the translator does not
know, a missing, failing or slow compiler and a library that will not load all
make ``load`` return None, without a warning, and the Python kernels run.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile

#: the emitted RK4 loops that run natively, each ``def NAME(state, n, h)``
KERNELS = ("rk4_geo", "rk4_par")
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

_ENTRY = """
int {name}_end(const double *state, long n, int fine, double *out)
{{
    fexcept_t saved;
    double b[{width}];
    if (!all_finite(state, {width}))
        return 1;
    fegetexceptflag(&saved, FE_ALL_EXCEPT);
    feclearexcept(FE_ALL_EXCEPT);
    {name}(state, n, 1.0 / n, out);
    if (fine) {{
        {name}(state, 2 * n, 0.5 / n, b);
        for (int i = 0; i < {width}; i++)
            out[i] = ((16.0 * b[i]) - out[i]) / 15.0;
    }}
    return settle(&saved, out, {width});
}}
"""


class _Unknown(Exception):
    """A construct ``translate`` does not render."""


class _Function:
    """C for one emitted ``def NAME(state, n, h)``: ``text`` and its state ``width``.

    ``state`` is a ``const double *`` unpacked by one tuple assignment, ``n`` a
    ``long`` read only as a ``range`` bound, ``h`` and every assigned name a
    ``double`` (``v_NAME``), a ``for`` variable a ``long`` counter, and the
    returned tuple is written to ``out``.
    """

    def __init__(self, node):
        a = node.args
        if ([p.arg for p in a.args] != ["state", "n", "h"] or a.posonlyargs or a.vararg
                or a.kwonlyargs or a.kwarg or a.defaults or node.decorator_list):
            raise _Unknown(node.name)
        self.doubles = {"h"}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                self.doubles |= {t.id for t in ast.walk(sub) if isinstance(t, ast.Name)
                                 and isinstance(t.ctx, ast.Store)}
        if self.doubles & {"state", "n"}:
            raise _Unknown(f"{node.name} assigns to an argument")
        self.width = None
        self.returned = None
        body = self.block(node.body, "    ", in_loop=False)
        if self.width is None or self.returned != self.width:
            raise _Unknown(f"{node.name} does not return its state's width")
        names = sorted(self.doubles - {"h"})
        self.text = "\n".join([
            f"static void {node.name}(const double *state, long v_n, double v_h, double *out)",
            "{", *[f"    double v_{name};" for name in names], *body, "}", "",
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
                if isinstance(bound, ast.Name) and bound.id == "n":
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


def translate(src):
    """(C source, state width of each loop in ``KERNELS``) for an emitted kernel
    source, or None when a loop is missing or holds a construct not rendered here."""
    defs = {f.name: f for f in ast.parse(src).body if isinstance(f, ast.FunctionDef)}
    try:
        loops = {name: _Function(defs[name]) for name in KERNELS}
    except (KeyError, _Unknown):
        return None
    parts = [_PRELUDE] + [f.text for f in loops.values()]
    parts += [_ENTRY.format(name=name, width=f.width) for name, f in loops.items()]
    return "\n".join(parts), {name: f.width for name, f in loops.items()}


_DOUBLES = ctypes.POINTER(ctypes.c_double)


class Kernels:
    """The ``NAME_end`` entry point of each loop of one loaded library.

    ``load`` memoizes one instance per kernel source, which every backend with
    the same equalities shares, from any thread, and ``ctypes`` releases the GIL
    during a call: so nothing here is mutable, and each call allocates its own
    arrays.
    """

    def __init__(self, lib, widths):
        self._lib = lib  # the entry points below live as long as the library
        self._loops = {}
        for name, width in widths.items():
            entry = lib[f"{name}_end"]
            entry.argtypes = (_DOUBLES, ctypes.c_long, ctypes.c_int, _DOUBLES)
            entry.restype = ctypes.c_int
            self._loops[name] = (entry, ctypes.c_double * width)

    def end(self, name, state, n, fine):
        """``name``'s end state after ``n`` RK4 steps of ``1/n``, combined with ``2n``
        steps of ``0.5/n`` when ``fine``, as a tuple of floats; None where the call
        was not clean and must be repeated through the Python kernel."""
        entry, array = self._loops[name]
        if len(state) != array._length_:  # the C reads and writes exactly this many
            raise ValueError(f"a state of {array._length_} values expected, not {len(state)}")
        out = array()
        # out[:] reads all the doubles at once, several times faster than tuple(out)
        return None if entry(array(*state), n, fine, out) else tuple(out[:])


@functools.cache
def load(src):
    """The native ``Kernels`` of an emitted kernel source, or None.

    Built on the first call for each source in a process and memoized; the
    shared object is cached on disk under ``cache_dir()``, one per C source and
    command, named by their sha256.  Without a usable cache directory it is
    built in a temporary one, removed as soon as the library is loaded, so
    nothing is left behind for ``atexit`` to remove: a process forked by
    ``studies._fork_map`` leaves without running it.
    """
    translated = translate(src)
    if translated is None:
        return None
    csrc, widths = translated
    folder = cache_dir()
    if folder is not None:
        return _load(csrc, widths, folder)
    try:
        with tempfile.TemporaryDirectory(prefix="manisweep-", ignore_cleanup_errors=True) as tmp:
            return _load(csrc, widths, tmp)
    except OSError:  # no temporary directory can be made
        return None


def _load(csrc, widths, folder):
    path = _shared_object(csrc, folder)
    if path is None:
        return None
    try:
        return Kernels(ctypes.CDLL(path), widths)
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
