"""Three small classifier families: logistic regression fit by gradient
descent, bagged decision stumps, and a one-hidden-layer feedforward net.

All training is deterministic under a seed; prediction is a pure function
of stored parameters.  Class imbalance is handled by per-class weights in
the loss (weighted Gini for stumps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from ..ingest import write_json
from ..parallel import parallel_map
from ..records import distinct
from ..rng import derive_rng, derive_seed

FORMAT_VERSION = 1

LOGISTIC_TOL = 1e-10
LOGISTIC_MAX_ITER = 10_000
MLP_HIDDEN = 64
MLP_LEARNING_RATE = 0.05
MLP_BATCH = 32
MLP_MAX_EPOCHS = 200
MLP_PATIENCE = 10
MLP_INPUT_DROPOUT = 0.1
MLP_HIDDEN_DROPOUT = 0.2
MLP_VALIDATION_FRACTION = 0.2


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _softplus(z):
    return np.logaddexp(0.0, z)


def _bce(z, y, w):
    """Weighted mean binary cross-entropy from logits (stable form)."""
    return float(np.sum(w * (_softplus(z) - y * z)) / np.sum(w))


def _sample_weights(y: np.ndarray, class_weight) -> np.ndarray:
    if class_weight is None:
        return np.ones(len(y))
    if class_weight != "balanced":
        raise ValueError(f"[model] class_weight must be empty or 'balanced', got {class_weight!r}")
    classes, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    return (len(y) / (len(classes) * counts))[inverse]


def _standardizer(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    return mean, scale


def _check_classes(y: np.ndarray) -> None:
    classes = distinct(y)
    if len(classes) < 2:
        raise ValueError("training set has a single class")
    if not set(classes.tolist()) <= {0.0, 1.0}:
        raise ValueError(f"labels must be 0/1, got {classes.tolist()}")


def _require(values: dict, shape: tuple, *names: str) -> None:
    """Raise ValueError unless each named entry of values is finite numbers of this shape."""
    for name in names:
        a = np.asarray(values[name])
        if a.shape != shape or a.dtype.kind not in "fiu" or not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite numbers of shape {shape}")


def _require_scale(values: dict) -> None:
    """Raise ValueError unless every standardizer scale is positive, as _standardizer makes them."""
    if not (np.asarray(values["scale"]) > 0).all():
        raise ValueError("scale must be > 0")


class _Model:
    @property
    def family(self) -> str:
        """This model's key in FAMILIES."""
        return next(name for name, (_, cls, _) in FAMILIES.items() if cls is type(self))


@dataclass
class LogisticModel(_Model):
    columns: list[str]
    mean: np.ndarray
    scale: np.ndarray
    coef: np.ndarray
    bias: float
    seed: int

    def __post_init__(self):
        _require(vars(self), (len(self.columns),), "mean", "scale", "coef")
        _require(vars(self), (), "bias")
        _require_scale(vars(self))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        Xs = (np.asarray(X, dtype=float) - self.mean) / self.scale
        return Xs @ self.coef + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))


def train_logistic(table, class_weight=None, seed: int = 0) -> LogisticModel:
    """Full-batch gradient descent with step halving.

    The step is halved whenever a proposed update would increase the loss,
    so the loss sequence is non-increasing by construction; a non-finite
    loss raises instead of silently diverging.
    """
    _check_classes(table.y)
    w = _sample_weights(table.y, class_weight)
    mean, scale = _standardizer(table.X)
    Xs = (table.X - mean) / scale
    y = table.y
    theta = np.zeros(Xs.shape[1] + 1)  # [coef..., bias]
    wsum = w.sum()

    def loss_grad(t):
        z = Xs @ t[:-1] + t[-1]
        loss = _bce(z, y, w)
        r = w * (_sigmoid(z) - y) / wsum
        return loss, np.concatenate([Xs.T @ r, [r.sum()]])

    loss, grad = loss_grad(theta)
    lr = 1.0
    for it in range(LOGISTIC_MAX_ITER):
        if not np.isfinite(loss):
            raise RuntimeError(f"logistic training diverged at iteration {it}: loss={loss}")
        stepped = False
        for _ in range(60):
            cand = theta - lr * grad
            new_loss, new_grad = loss_grad(cand)
            if np.isfinite(new_loss) and new_loss <= loss:
                stepped = True
                break
            lr *= 0.5
        if not stepped or loss - new_loss < LOGISTIC_TOL * max(1.0, abs(loss)):
            theta, loss = (cand, new_loss) if stepped else (theta, loss)
            break
        theta, loss, grad = cand, new_loss, new_grad
        lr = min(lr * 1.1, 1e3)
    return LogisticModel(list(table.columns), mean, scale, theta[:-1], float(theta[-1]), seed)


@dataclass
class BaggedStumpsModel(_Model):
    """Average of threshold stumps; each leaf stores P(class 1)."""

    columns: list[str]
    stumps: list[dict]
    seed: int

    def __post_init__(self):
        if not self.stumps:
            raise ValueError("stumps must not be empty")
        for s in self.stumps:
            f = s["feature"]
            if not (f is None or (type(f) is int and 0 <= f < len(self.columns))):
                raise ValueError(f"stump feature {f!r} is not a column index")
            _require(s, (), "threshold", "p_left", "p_right")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(len(X))
        for s in self.stumps:
            if s["feature"] is None:
                out += s["p_right"]
            else:
                left = X[:, s["feature"]] <= s["threshold"]
                out += np.where(left, s["p_left"], s["p_right"])
        return out / len(self.stumps)


def _fit_stump(X: np.ndarray, y: np.ndarray, w: np.ndarray, feature_ids) -> dict:
    """Best single threshold split by weighted Gini over the given features."""
    W = w.sum()
    p_all = float((w * y).sum() / W)
    best = None
    for j in feature_ids:
        order = np.argsort(X[:, j], kind="stable")
        xv = X[order, j]
        wv = w[order]
        wy = wv * y[order]
        cw = np.cumsum(wv)
        cwy = np.cumsum(wy)
        distinct = np.flatnonzero(xv[:-1] < xv[1:])
        for i in distinct:
            wl, wr = cw[i], W - cw[i]
            pl = cwy[i] / wl
            pr = (cwy[-1] - cwy[i]) / wr
            impurity = wl * 2 * pl * (1 - pl) + wr * 2 * pr * (1 - pr)
            key = (impurity, j, xv[i])
            if best is None or key < best[0]:
                t = (xv[i] + xv[i + 1]) / 2.0
                best = (key, {"feature": int(j), "threshold": float(t),
                              "p_left": float(pl), "p_right": float(pr)})
    if best is None:
        return {"feature": None, "threshold": 0.0, "p_left": p_all, "p_right": p_all}
    return best[1]


def train_bagged_stumps(
    table,
    rounds: int = 50,
    class_weight=None,
    seed: int = 0,
) -> BaggedStumpsModel:
    """Bootstrap-aggregated stumps, each round on round(sqrt(k)) of the k features."""
    _check_classes(table.y)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n, k = table.X.shape
    w = _sample_weights(table.y, class_weight)
    m = min(max(1, round(np.sqrt(k))), k)

    def one_round(r: int) -> dict:
        rng = derive_rng(seed, "bag", str(r))
        idx = rng.integers(0, n, size=n)
        feats = sorted(rng.choice(k, size=m, replace=False).tolist())
        yb = table.y[idx]
        if yb.min() == yb.max():
            p = float(yb[0])
            return {"feature": None, "threshold": 0.0, "p_left": p, "p_right": p}
        return _fit_stump(table.X[idx], yb, w[idx], feats)

    stumps = parallel_map(one_round, range(rounds))
    return BaggedStumpsModel(list(table.columns), stumps, seed)


@dataclass
class MlpModel(_Model):
    """One hidden layer, softplus activations, sigmoid output."""

    columns: list[str]
    mean: np.ndarray
    scale: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: float
    seed: int

    def __post_init__(self):
        k, h = len(self.columns), np.size(self.b1)
        _require(vars(self), (k,), "mean", "scale")
        _require(vars(self), (k, h), "W1")
        _require(vars(self), (h,), "b1", "W2")
        _require(vars(self), (), "b2")
        _require_scale(vars(self))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (np.asarray(X, dtype=float) - self.mean) / self.scale
        h = _softplus(Xs @ self.W1 + self.b1)
        return _sigmoid(h @ self.W2 + self.b2)

    def loss_and_grad(self, Xs, y, w, masks=None):
        """Loss and parameter gradients on pre-standardized inputs.

        masks=(input_mask, hidden_mask) applies inverted dropout; None runs
        the deterministic network (used for validation and gradient checks).
        """
        Xu = Xs * masks[0] if masks is not None else Xs
        z1 = Xu @ self.W1 + self.b1
        h = _softplus(z1)
        hu = h * masks[1] if masks is not None else h
        z2 = hu @ self.W2 + self.b2
        wsum = w.sum()
        loss = _bce(z2, y, w)
        dz2 = w * (_sigmoid(z2) - y) / wsum
        gW2 = hu.T @ dz2
        gb2 = float(dz2.sum())
        dh = np.outer(dz2, self.W2)
        if masks is not None:
            dh = dh * masks[1]
        dz1 = dh * _sigmoid(z1)
        gW1 = Xu.T @ dz1
        gb1 = dz1.sum(axis=0)
        return loss, (gW1, gb1, gW2, gb2)


def train_mlp(
    table,
    hidden: int = MLP_HIDDEN,
    learning_rate: float = MLP_LEARNING_RATE,
    batch_size: int = MLP_BATCH,
    max_epochs: int = MLP_MAX_EPOCHS,
    patience: int = MLP_PATIENCE,
    class_weight=None,
    seed: int = 0,
) -> MlpModel:
    """Mini-batch SGD with inverted dropout and early stopping.

    A stratified validation slice (20% of the training rows) drives
    early stopping on its dropout-free loss with the given patience; the
    parameters returned are the best-validation snapshot.
    """
    from .data import split_train_test

    _check_classes(table.y)
    if hidden < 1 or batch_size < 1:
        raise ValueError(f"hidden and batch_size must be >= 1, got hidden={hidden}, batch_size={batch_size}")
    fit_tab, val_tab = split_train_test(
        table, fraction=1.0 - MLP_VALIDATION_FRACTION, seed=derive_seed(seed, "mlp-val")
    )
    if len(val_tab) == 0 or len(fit_tab) == 0 or fit_tab.y.min() == fit_tab.y.max():
        raise ValueError("table too small for an mlp validation split")
    mean, scale = _standardizer(fit_tab.X)
    Xs = (fit_tab.X - mean) / scale
    Xv = (val_tab.X - mean) / scale
    y = fit_tab.y
    w = _sample_weights(y, class_weight)
    wv = _sample_weights(val_tab.y, class_weight) if val_tab.y.min() < val_tab.y.max() else np.ones(len(val_tab))

    k = Xs.shape[1]
    init = derive_rng(seed, "mlp-init")
    model = MlpModel(
        columns=list(table.columns),
        mean=mean,
        scale=scale,
        W1=init.normal(0, np.sqrt(2.0 / k), size=(k, hidden)),
        b1=np.zeros(hidden),
        W2=init.normal(0, np.sqrt(2.0 / hidden), size=hidden),
        b2=0.0,
        seed=seed,
    )
    best = (np.inf, None)
    stale = 0
    for epoch in range(max_epochs):
        rng = derive_rng(seed, "mlp-epoch", str(epoch))
        order = rng.permutation(len(Xs))
        for start in range(0, len(Xs), batch_size):
            idx = order[start : start + batch_size]
            masks = (
                (rng.random((len(idx), k)) >= MLP_INPUT_DROPOUT) / (1.0 - MLP_INPUT_DROPOUT),
                (rng.random((len(idx), hidden)) >= MLP_HIDDEN_DROPOUT) / (1.0 - MLP_HIDDEN_DROPOUT),
            )
            loss, (gW1, gb1, gW2, gb2) = model.loss_and_grad(Xs[idx], y[idx], w[idx], masks)
            if not np.isfinite(loss):
                raise RuntimeError(f"mlp training diverged at epoch {epoch}: loss={loss}")
            model.W1 -= learning_rate * gW1
            model.b1 -= learning_rate * gb1
            model.W2 -= learning_rate * gW2
            model.b2 -= learning_rate * gb2
        val_loss, _ = model.loss_and_grad(Xv, val_tab.y, wv)
        if not np.isfinite(val_loss):
            raise RuntimeError(f"mlp validation loss non-finite at epoch {epoch}")
        if val_loss < best[0]:
            best = (val_loss, (model.W1.copy(), model.b1.copy(), model.W2.copy(), model.b2))
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    if best[1] is not None:
        model.W1, model.b1, model.W2, model.b2 = best[1]
    return model


# family -> (trainer, model class, the [model] keys the trainer takes)
FAMILIES = {
    "logistic": (train_logistic, LogisticModel, ("class_weight",)),
    "bagged_stumps": (train_bagged_stumps, BaggedStumpsModel, ("rounds", "class_weight")),
    "mlp": (train_mlp, MlpModel, ("hidden", "learning_rate", "batch_size", "max_epochs", "patience",
                                  "class_weight")),
}
# field annotation (a string, under `from __future__ import annotations`) -> its load_model conversion
_CONVERT = {"list[str]": list, "list[dict]": list, "np.ndarray": lambda v: np.array(v, dtype=float),
            "float": float, "int": int}


def train(table, family: str, hyperparameters: dict | None = None, seed: int = 0):
    """Dispatch to one model family with its hyperparameter dict."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    return FAMILIES[family][0](table, seed=seed, **(hyperparameters or {}))


def save_model(model, path: str) -> None:
    """The model's fields as JSON, arrays as nested lists."""
    payload = {}
    for f in fields(model):
        v = getattr(model, f.name)
        payload[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    write_json(path, {"format_version": FORMAT_VERSION, "family": model.family, "payload": payload}, indent=2)


def load_model(path: str):
    """A model saved by save_model; a malformed file is a ValueError naming path."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: bad model file: not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format_version {doc.get('format_version')!r}")
    family = doc.get("family")
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown model family {family!r}")
    cls, payload = FAMILIES[family][1], doc.get("payload")
    try:
        if not isinstance(payload, dict):
            raise ValueError("payload is not a JSON object")
        return cls(**{f.name: _CONVERT[f.type](payload[f.name]) for f in fields(cls)})
    except KeyError as exc:
        raise ValueError(f"{path}: bad {family} model: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad {family} model: {exc}") from None
