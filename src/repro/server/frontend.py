"""The front-end server (paper section 3.2).

Provides applications with a REST-style API — plain-dict requests and
responses standing in for JSON bodies — that supports creating,
updating, and deleting table specifications (schema + scoring function
+ constraint template + budget), controlling data collection, and
retrieving collected data.  All metadata and collected data persist in
the document store (the MongoDB substitute), and worker payment flows
through the marketplace's bonus channel.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.constraints.template import Template, TemplateError
from repro.core.schema import Schema, SchemaError
from repro.core.scoring import (
    ScoringError,
    scoring_from_dict,
    scoring_to_dict,
    validate_scoring,
)
from repro.docstore import Database
from repro.marketplace import Marketplace
from repro.net import Network
from repro.pay import AllocationScheme, allocate, analyze_contributions
from repro.server.backend import BackendServer
from repro.sim import Simulator


class ApiError(Exception):
    """An API-level failure with an HTTP-ish status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class FrontendServer:
    """CrowdFill's application-facing API.

    Example:
        >>> front = FrontendServer()
        >>> spec = front.create_spec({
        ...     "name": "demo",
        ...     "schema": {
        ...         "name": "T",
        ...         "columns": [{"name": "a"}],
        ...         "primary_key": ["a"],
        ...     },
        ...     "scoring": {"kind": "default"},
        ...     "template": {"rows": [{"label": "a", "cells": {}}]},
        ...     "budget": 1.0,
        ... })
        >>> front.get_spec(spec["id"])["name"]
        'demo'
    """

    def __init__(self, db: Database | None = None) -> None:
        self.db = db or Database("crowdfill")
        self.db.collection("table_specs").create_index("name", unique=True)
        self._active: dict[str, BackendServer] = {}

    # -- table specifications -----------------------------------------------

    def create_spec(self, body: dict[str, Any]) -> dict[str, Any]:
        """POST /specs — validate and store a table specification.

        Required fields: ``name``, ``schema``, ``template``; optional:
        ``scoring`` (default u-d), ``budget`` (default 0), ``vote_cap``.

        Raises:
            ApiError: 400 on validation failure, 409 on duplicate name.
        """
        document = self._validated_spec(body)
        from repro.docstore.errors import DuplicateKeyError

        try:
            spec_id = self.db.collection("table_specs").insert_one(document)
        except DuplicateKeyError as exc:
            raise ApiError(409, str(exc)) from exc
        return {"id": spec_id}

    def get_spec(self, spec_id: str) -> dict[str, Any]:
        """GET /specs/{id}."""
        doc = self.db.collection("table_specs").find_one({"_id": spec_id})
        if doc is None:
            raise ApiError(404, f"no spec {spec_id!r}")
        return doc

    def list_specs(self) -> list[dict[str, Any]]:
        """GET /specs."""
        return self.db.collection("table_specs").find()

    def update_spec(self, spec_id: str, body: dict[str, Any]) -> dict[str, Any]:
        """PUT /specs/{id} — replace the stored specification.

        Raises:
            ApiError: 404 unknown id, 400 invalid body, 409 if a
                collection is already running against this spec.
        """
        self.get_spec(spec_id)
        if spec_id in self._active:
            raise ApiError(409, f"spec {spec_id!r} has an active collection")
        document = self._validated_spec(body)
        self.db.collection("table_specs").update_one({"_id": spec_id}, document)
        return {"id": spec_id}

    def delete_spec(self, spec_id: str) -> dict[str, Any]:
        """DELETE /specs/{id}."""
        if spec_id in self._active:
            raise ApiError(409, f"spec {spec_id!r} has an active collection")
        deleted = self.db.collection("table_specs").delete_one({"_id": spec_id})
        if not deleted:
            raise ApiError(404, f"no spec {spec_id!r}")
        return {"deleted": spec_id}

    def _validated_spec(self, body: dict[str, Any]) -> dict[str, Any]:
        try:
            name = body["name"]
            schema = Schema.from_dict(body["schema"])
            template = Template.from_dict(body["template"])
            scoring = scoring_from_dict(body.get("scoring", {"kind": "default"}))
            validate_scoring(scoring)
            template.validate_against(schema)
        except (KeyError, SchemaError, TemplateError, ScoringError, ValueError) as exc:
            raise ApiError(400, f"invalid table specification: {exc}") from exc
        budget = float(body.get("budget", 0.0))
        if budget < 0:
            raise ApiError(400, "budget must be nonnegative")
        return {
            "name": name,
            "schema": schema.to_dict(),
            "template": template.to_dict(),
            "scoring": scoring_to_dict(scoring),
            "budget": budget,
            "vote_cap": body.get("vote_cap"),
            "status": "draft",
        }

    # -- collection control ---------------------------------------------------

    def launch(
        self,
        spec_id: str,
        sim: Simulator,
        network: Network,
        marketplace: Marketplace,
        max_workers: int,
        base_reward: float = 0.0,
        on_worker_accept: Callable[[str, BackendServer], None] | None = None,
    ) -> dict[str, Any]:
        """POST /specs/{id}/launch — start collecting.

        Creates the back-end server, posts one task on the marketplace,
        and redirects accepting workers to the back-end via
        *on_worker_accept* (which should build and attach a client).

        Returns the marketplace task id; the backend stays addressable
        through this front-end under the spec id.
        """
        spec = self.get_spec(spec_id)
        if spec_id in self._active:
            raise ApiError(409, f"spec {spec_id!r} already collecting")
        schema = Schema.from_dict(spec["schema"])
        scoring = scoring_from_dict(spec["scoring"])
        template = Template.from_dict(spec["template"])
        backend = BackendServer(sim, network, schema, scoring, template)
        self._active[spec_id] = backend

        def accept(worker_id: str) -> None:
            if on_worker_accept is not None:
                on_worker_accept(worker_id, backend)

        task = marketplace.post_task(
            title=f"Fill in the {schema.name} table",
            description=spec["name"],
            base_reward=base_reward,
            max_assignments=max_workers,
            external_url=f"crowdfill://collect/{spec_id}",
            on_accept=accept,
        )
        backend.start()
        self.db.collection("table_specs").update_one(
            {"_id": spec_id},
            {"$set": {"status": "collecting", "task_id": task.task_id}},
        )
        return {"task_id": task.task_id, "spec_id": spec_id}

    def backend_for(self, spec_id: str) -> BackendServer:
        """The live back-end server for an active collection."""
        if spec_id not in self._active:
            raise ApiError(404, f"no active collection for spec {spec_id!r}")
        return self._active[spec_id]

    def status(self, spec_id: str) -> dict[str, Any]:
        """GET /specs/{id}/status."""
        backend = self.backend_for(spec_id)
        return {
            "completed": backend.completed,
            "completion_time": backend.completion_time,
            "candidate_rows": len(backend.replica.table),
            "final_rows": len(backend.final_rows()),
            "trace_length": len(backend.trace),
            "template_rows": len(backend.central.template_rows),
            "dropped_template_rows": len(backend.central.dropped_rows),
        }

    # -- results & payment -------------------------------------------------------

    def collect(self, spec_id: str) -> dict[str, Any]:
        """GET /specs/{id}/data — retrieve and persist collected data."""
        backend = self.backend_for(spec_id)
        final = [dict(row.value) for row in backend.final_rows()]
        result = {
            "spec_id": spec_id,
            "final_table": final,
            "candidate_table": backend.replica.table.to_records(),
            "completed": backend.completed,
            "completion_time": backend.completion_time,
        }
        results = self.db.collection("results")
        results.delete_many({"spec_id": spec_id})
        results.insert_one(result)
        # Bookkeeping (section 3.3): persist the complete action trace
        # so compensation stays auditable/replayable after teardown.
        from repro.server.tracelog import store_trace

        store_trace(self.db, "traces", spec_id, backend.trace)
        return result

    def pay_workers(
        self,
        spec_id: str,
        marketplace: Marketplace,
        scheme: AllocationScheme = AllocationScheme.DUAL_WEIGHTED,
    ) -> dict[str, Any]:
        """POST /specs/{id}/pay — allocate the budget and grant bonuses."""
        backend = self.backend_for(spec_id)
        spec = self.get_spec(spec_id)
        schema = Schema.from_dict(spec["schema"])
        trace = backend.worker_trace()
        analysis = analyze_contributions(schema, backend.final_rows(), trace)
        result = allocate(schema, trace, analysis, spec["budget"], scheme)
        for worker_id, amount in sorted(result.by_worker.items()):
            if amount > 0:
                marketplace.grant_bonus(
                    worker_id, amount, reason=f"crowdfill:{spec_id}"
                )
        payments = {
            "spec_id": spec_id,
            "scheme": scheme.value,
            "by_worker": result.by_worker,
            "total_allocated": result.total_allocated,
            "unspent": result.unspent,
        }
        self.db.collection("payments").insert_one(payments)
        self.db.collection("table_specs").update_one(
            {"_id": spec_id}, {"$set": {"status": "paid"}}
        )
        return payments

    def worker_activity(self, spec_id: str) -> list[dict[str, Any]]:
        """GET /specs/{id}/activity — per-worker action summary.

        Aggregates the persisted trace (written by :meth:`collect`):
        message counts by worker, with first and last action times.
        The Central Client's bookkeeping rows are excluded.

        Raises:
            ApiError: 404 when no trace has been persisted yet.
        """
        from repro.constraints.central import CENTRAL_CLIENT_ID

        traces = self.db.collection("traces")
        if not traces.count({"run_id": spec_id}):
            raise ApiError(404, f"no stored trace for spec {spec_id!r}")
        return traces.aggregate([
            {"$match": {
                "run_id": spec_id,
                "worker_id": {"$ne": CENTRAL_CLIENT_ID},
            }},
            {"$group": {
                "_id": "$worker_id",
                "actions": {"$count": 1},
                "kinds": {"$addToSet": "$message.type"},
                "first_action": {"$min": "$timestamp"},
                "last_action": {"$max": "$timestamp"},
            }},
            {"$sort": [("actions", -1)]},
        ])

    def finish(self, spec_id: str) -> None:
        """Tear down the active collection for *spec_id*."""
        self._active.pop(spec_id, None)
