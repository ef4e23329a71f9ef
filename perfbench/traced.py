"""Traced stand-ins for the dataset views and models the workloads use.

Each class subclasses the potsmine class it stands in for and wraps the
public calls fit() and the task functions make into it in a span, then
defers to the parent. Nothing in potsmine is patched: the untraced
rounds of the benchmark use the plain classes.

Span names and what they cover:

    store.fetch        LazyDataset.fetch_batch (pread, CRC, decode, re-validation)
    core.batch         a view's training_batch, minus its store.fetch children
    base.prepare       prepare_fit (norm stats; its batches nest inside)
    base.shard         shard_loss_and_grads minus batch and forward: the
                       tape's backward sweep plus leaf set-up
    tensor.forward     batch_loss_sum: building the forward graph
    base.validation    validation_metric, minus the batches it reads
    imputation.impute_batch / classification.predict_batch
                       the model's batch inference call
"""

from __future__ import annotations

from potsmine import CorruptedPairView, LazyDataset, PotsDataset, stack_samples
from potsmine.models import GrudLiteModel, SaitsLiteModel

from spans import Tracer


class TracedLazyDataset(LazyDataset):
    def __init__(self, handle, tracer: Tracer):
        super().__init__(handle)
        self.tracer = tracer

    def fetch_batch(self, indices):
        before = self.handle.payload_bytes_read
        with self.tracer.span("store.fetch", records=len(indices)) as s:
            out = super().fetch_batch(indices)
        s.attrs["bytes"] = self.handle.payload_bytes_read - before
        return out

    def training_batch(self, indices):
        # LazyDataset.training_batch reads through the handle directly, so
        # route the read through fetch_batch to give it its own span
        with self.tracer.span("core.batch"):
            return stack_samples(self.fetch_batch(indices))


class TracedPairView(CorruptedPairView):
    def __init__(self, original, corrupted, tracer: Tracer):
        super().__init__(original, corrupted)
        self.tracer = tracer

    def training_batch(self, indices):
        with self.tracer.span("core.batch"):
            return super().training_batch(indices)


class TracedDataset(PotsDataset):
    def __init__(self, dataset: PotsDataset, tracer: Tracer):
        super().__init__(dataset.samples, n_classes=dataset.n_classes)
        self.tracer = tracer

    def training_batch(self, indices):
        with self.tracer.span("core.batch"):
            return super().training_batch(indices)


class _TracedGradient:
    """Spans around the GradientModel hooks that fit() calls."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def prepare_fit(self, train_set):
        with self.tracer.span("base.prepare"):
            super().prepare_fit(train_set)

    def shard_loss_and_grads(self, view, indices):
        with self.tracer.span("base.shard"):
            return super().shard_loss_and_grads(view, indices)

    def batch_loss_sum(self, leaves, batch):
        with self.tracer.span("tensor.forward") as s:
            loss = super().batch_loss_sum(leaves, batch)
        s.attrs["nodes"] = len(loss.tape)
        return loss

    def validation_metric(self, val_set, config):
        with self.tracer.span("base.validation"):
            return super().validation_metric(val_set, config)


class TracedSaits(_TracedGradient, SaitsLiteModel):
    def impute_batch(self, batch):
        with self.tracer.span("imputation.impute_batch"):
            return super().impute_batch(batch)


class TracedGrud(_TracedGradient, GrudLiteModel):
    def predict_proba_batch(self, batch):
        with self.tracer.span("classification.predict_batch"):
            return super().predict_proba_batch(batch)
