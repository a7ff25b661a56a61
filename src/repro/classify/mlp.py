"""A small multi-layer perceptron with Adam, in plain numpy.

One hidden ReLU layer, softmax cross-entropy output, minibatch Adam.
Deliberately boring: the attack result must not depend on classifier
exotica.
"""

from __future__ import annotations

import numpy as np

from repro import obs

_log = obs.get_logger("classify.mlp")


class MLPClassifier:
    """ReLU MLP trained with minibatch Adam on cross-entropy."""

    def __init__(
        self,
        n_inputs: int,
        n_classes: int,
        hidden: int = 64,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        scale1 = np.sqrt(2.0 / n_inputs)
        scale2 = np.sqrt(2.0 / hidden)
        self.params = {
            "W1": rng.normal(0, scale1, (n_inputs, hidden)),
            "b1": np.zeros(hidden),
            "W2": rng.normal(0, scale2, (hidden, n_classes)),
            "b2": np.zeros(n_classes),
        }
        self.lr = lr
        self._adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._adam_tmp = {
            k: (np.empty_like(v), np.empty_like(v)) for k, v in self.params.items()
        }
        self._adam_t = 0
        self._rng = rng
        self.n_classes = n_classes

    # -- forward / backward -----------------------------------------------
    def _forward(self, x: np.ndarray):
        z1 = x @ self.params["W1"] + self.params["b1"]
        a1 = np.maximum(z1, 0.0)
        logits = a1 @ self.params["W2"] + self.params["b2"]
        return z1, a1, logits

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def _step(self, x: np.ndarray, y: np.ndarray) -> float:
        z1, a1, logits = self._forward(x)
        probs = self._softmax(logits)
        n = len(y)
        loss = -np.log(probs[np.arange(n), y] + 1e-12).mean()

        dlogits = probs
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grads = {
            "W2": a1.T @ dlogits,
            "b2": dlogits.sum(axis=0),
        }
        da1 = dlogits @ self.params["W2"].T
        dz1 = da1 * (z1 > 0)
        grads["W1"] = x.T @ dz1
        grads["b1"] = dz1.sum(axis=0)

        self._adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        bias1 = 1 - beta1**self._adam_t
        bias2 = 1 - beta2**self._adam_t
        for key, grad in grads.items():
            # In place, with the out-of-place rule's operation order:
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2;
            # p -= (lr * m/bias1) / (sqrt(v/bias2) + eps).
            m, v = self._adam_m[key], self._adam_v[key]
            step, denom = self._adam_tmp[key]
            m *= beta1
            np.multiply(grad, 1 - beta1, out=step)
            m += step
            v *= beta2
            np.square(grad, out=denom)
            denom *= 1 - beta2
            v += denom
            np.divide(m, bias1, out=step)
            step *= self.lr
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
            self.params[key] -= step
        return float(loss)

    # -- public API ---------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 30,
        batch_size: int = 32,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        verbose: bool = False,
    ) -> list[float]:
        """Train; returns per-epoch mean training loss.  Validation data,
        when given, is used for mid-training accuracy reporting only (the
        paper's evaluation split).

        ``verbose`` routes per-epoch progress through the
        :mod:`repro.obs` logger — never stdout, which campaign workers
        and the CLI parse — so training is silent unless observability
        is enabled."""
        # One exact cast: the float64 weights make every matmul float64
        # anyway, so each batch no longer converts its slice.
        x = np.asarray(x, dtype=np.float64)
        history = []
        n = len(x)
        progress = verbose and x_val is not None and obs.enabled()
        for epoch in range(epochs):
            order = self._rng.permutation(n)
            losses = []
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                losses.append(self._step(x[batch], y[batch]))
            history.append(float(np.mean(losses)))
            if progress:
                acc = self.accuracy(x_val, y_val)
                _log.info(
                    f"epoch {epoch}: loss {history[-1]:.4f} "
                    f"val acc {acc:.3f}",
                    epoch=epoch,
                    loss=history[-1],
                    val_accuracy=acc,
                )
        return history

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        _, _, logits = self._forward(x)
        return self._softmax(logits)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        if len(x) == 0:
            return 0.0
        return float((self.predict(x) == y).mean())
