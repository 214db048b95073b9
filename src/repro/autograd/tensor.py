"""Reverse-mode autodiff tensor.

The engine records a computation tape as :class:`Tensor` objects are
combined; calling :meth:`Tensor.backward` on a scalar result walks the tape
in reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

Design notes
------------
- Data is stored as ``numpy.ndarray`` (``float64`` by default — the SNN
  models in this repo are small, so we trade speed for gradient-check
  precision).
- Broadcasting follows numpy semantics; gradients of broadcast operands are
  reduced back to the operand shape by :func:`_unbroadcast`.
- Gradient mode is a global, thread-local-free switch (:func:`no_grad`)
  because the library runs single-threaded optimisation loops.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GradientError, ShapeError

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the ``with`` block.

    Used for fast inference paths and for bookkeeping computations (e.g.
    recording activated neurons) that must not contribute gradients.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the backward tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    numpy broadcasting may (a) prepend dimensions and (b) stretch size-1
    dimensions.  The adjoint of broadcasting is summation over the added or
    stretched axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot unbroadcast gradient {grad.shape} to {shape}")
    return grad


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``numpy.ndarray`` of ``dtype``.
    requires_grad:
        If True, gradients accumulate into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Storage dtype (default ``float64``).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: np.dtype = np.float64,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents if _GRAD_ENABLED else ()
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={self._op or 'leaf'})"

    def item(self) -> float:
        """Return the scalar payload; raises for non-scalar tensors."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._non_scalar()

    def _non_scalar(self) -> float:
        raise ShapeError(f"item() called on tensor of shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def isfinite_all(self, grad: bool = False) -> bool:
        """True when every element of the data (or, with ``grad=True``, the
        gradient buffer) is finite.

        Used by the numerics guard (:mod:`repro.core.guard`): a single sum
        reduction replaces an elementwise ``np.isfinite`` mask — NaN
        propagates through the sum and infinities either survive it or
        cancel to NaN, so one pass over memory decides.  A sum that
        overflows on huge finite values also reports False, which the
        guard treats as overflow detection.  A missing gradient buffer
        counts as finite.
        """
        target = self.grad if grad else self.data
        if target is None:
            return True
        return bool(np.isfinite(np.sum(target)))

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: ArrayLike, dtype: np.dtype) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=dtype))

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Create a result tensor wired into the tape (if grad is enabled)."""
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs, dtype=data.dtype)
        if needs:
            out._parents = parents
            out._backward = backward
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        A first gradient becomes the buffer itself when nothing else can
        reach it: ``owned=True`` (the caller built ``grad`` for this call
        and keeps no reference) or a dtype cast / broadcast reduction made
        a fresh array here.  Anything else — an upstream ``.grad``, a view
        of one — is copied, so no two tensors ever share a buffer that
        ``+=`` later writes through.
        """
        if not self.requires_grad:
            return
        g = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = g if owned or g is not grad else g.copy()
        else:
            self.grad += g

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1.0, which requires this tensor to
            be scalar.
        """
        if not self.requires_grad:
            raise GradientError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    f"backward() without seed gradient on non-scalar shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
            )

        order = self._topological_order()
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> List["Tensor"]:
        """Iterative DFS topological sort of the tape rooted at ``self``."""
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    def zero_grad(self) -> None:
        """Clear the accumulated gradient buffer."""
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make(data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad, owned=True)

        return self._make(data, (self, other), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other, self.data.dtype) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data, owned=True)
            other._accumulate(grad * self.data, owned=True)

        return self._make(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data, owned=True)
            other._accumulate(-grad * self.data / (other.data ** 2), owned=True)

        return self._make(data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other, self.data.dtype) / self

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        return self._make(data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise ShapeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return self._make(data, (self,), backward, "pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other, self.data.dtype)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim == 1
                                     else grad[..., None] * other.data, owned=True)
                else:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2), owned=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad), owned=True)
                else:
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ grad, owned=True)

        return self._make(data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return plain numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if np.isscalar(axis) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(np.asarray(data), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            full = self.data.max(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                axes = (axis,) if np.isscalar(axis) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            mask = (self.data == full)
            # Split gradient equally among ties, matching subgradient choice.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.broadcast_to(g, self.data.shape) * mask / counts, owned=True)

        return self._make(np.asarray(data), (self,), backward, "max")

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data, owned=True)

        return self._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, owned=True)

        return self._make(data, (self,), backward, "log")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data), owned=True)

        return self._make(data, (self,), backward, "sigmoid")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data ** 2), owned=True)

        return self._make(data, (self,), backward, "tanh")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data), owned=True)

        return self._make(data, (self,), backward, "abs")

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0), owned=True)

        return self._make(data, (self,), backward, "relu")

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            inside = (self.data >= low) & (self.data <= high)
            self._accumulate(grad * inside, owned=True)

        return self._make(data, (self,), backward, "clip")

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum; ties send the full gradient to ``self``."""
        other = self._coerce(other, self.data.dtype)
        data = np.maximum(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            self_wins = self.data >= other.data
            self._accumulate(grad * self_wins, owned=True)
            other._accumulate(grad * ~self_wins, owned=True)

        return self._make(data, (self, other), backward, "maximum")

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Elementwise minimum; ties send the full gradient to ``self``."""
        other = self._coerce(other, self.data.dtype)
        data = np.minimum(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            self_wins = self.data <= other.data
            self._accumulate(grad * self_wins, owned=True)
            other._accumulate(grad * ~self_wins, owned=True)

        return self._make(data, (self, other), backward, "minimum")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make(data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(data, (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(
            isinstance(p, (int, np.integer, slice)) or p is None or p is Ellipsis
            for p in parts
        )

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if not basic:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full, owned=True)
            elif self.grad is None:
                # Basic indices never alias, so assigning into a zero
                # buffer equals (and is much faster than) add.at ...
                self.grad = np.zeros_like(self.data)
                self.grad[index] = grad
            else:
                # ... and a later gradient adds into its slice alone.
                self.grad[index] += grad

        return self._make(np.asarray(data), (self,), backward, "getitem")

    def astype(self, dtype: np.dtype) -> "Tensor":
        """Cast to ``dtype``, differentiably (identity backward).

        Returns ``self`` unchanged when the dtype already matches, so the
        default-precision path records no extra tape node.
        """
        dtype = np.dtype(dtype)
        if self.data.dtype == dtype:
            return self
        data = self.data.astype(dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)

        return self._make(data, (self,), backward, "astype")

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two axes by ``padding`` on each side."""
        if padding < 0:
            raise ShapeError(f"padding must be >= 0, got {padding}")
        if padding == 0:
            return self
        pads = [(0, 0)] * (self.data.ndim - 2) + [(padding, padding)] * 2
        data = np.pad(self.data, pads)
        sl = tuple(
            [slice(None)] * (self.data.ndim - 2)
            + [slice(padding, -padding)] * 2
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[sl])

        return self._make(data, (self,), backward, "pad2d")


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, differentiably."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    proto = tensors[0]

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(np.squeeze(piece, axis=axis))

    return proto._make(data, tuple(tensors), backward, "stack")


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis, differentiably."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    proto = tensors[0]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(start, stop)
            t._accumulate(grad[tuple(sl)])

    return proto._make(data, tuple(tensors), backward, "concatenate")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: grad flows to ``a`` where true, ``b`` otherwise."""
    condition = np.asarray(condition, dtype=bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * condition, owned=True)
        b._accumulate(grad * ~condition, owned=True)

    return a._make(data, (a, b), backward, "where")
