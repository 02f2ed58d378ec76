"""Best-effort HTTP adapter for a real platform API.

Requests are plain GETs with no identifying cookies. Every call has a bounded
timeout and maps failures to typed errors, so the pipeline can skip and keep
going instead of blocking. Endpoint base URL and credentials come from the
environment; the retry count and backoff are the ``LiveAdapter`` constants
``max_retries`` and ``backoff``.

This adapter is deliberately thin glue: it is excluded from the deterministic
test oracles (the simulator covers those) and unit-tested against a local
HTTP stub.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import requests

from .config import API_KEY_ENV, BASE_URL_ENV
from .corpus import Comment, VideoRecord, decode_record
from .errors import (
    MALFORMED,
    ChannelNotFoundError,
    ChannelStalledError,
    CommentsDisabledError,
    ConfigError,
    FetchError,
    TransientFetchError,
    VideoNotFoundError,
)


@dataclass
class LiveAdapter:
    base_url: str
    api_key: str = ""
    timeout: float = 10.0
    max_retries: int = 2
    backoff: float = 0.5

    @classmethod
    def from_env(cls) -> "LiveAdapter":
        base = os.environ.get(BASE_URL_ENV, "")
        if not base:
            raise ConfigError(f"{BASE_URL_ENV} is not set")
        return cls(base_url=base, api_key=os.environ.get(API_KEY_ENV, ""))

    def _get(
        self,
        path: str,
        params: dict | None = None,
        errors: dict[int, FetchError] | None = None,
        decode: Callable = lambda body: body,
    ):
        """GET ``path`` and return ``decode`` of its JSON body, or raise a
        typed error.

        A status in ``errors`` raises its error. 429 and 5xx are retried with
        exponential backoff, or after ``Retry-After`` seconds (at most
        ``timeout``) when a 429 names them; 401 is a configuration error.
        Any other non-2xx status, or a body that is not JSON or that
        ``decode`` rejects as ``MALFORMED`` (a body of the wrong shape),
        raises :class:`TransientFetchError`.
        """
        url = self.base_url.rstrip("/") + path
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            delay = self.backoff * 2**attempt
            try:
                # cookies={} keeps each request cookie-free.
                resp = requests.get(
                    url, params=params, headers=headers, timeout=self.timeout, cookies={}
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                status = resp.status_code
                if errors and status in errors:
                    raise errors[status]
                if status == 401:
                    raise ConfigError(f"{url} returned 401: check {API_KEY_ENV}")
                if 200 <= status < 300:
                    try:
                        return decode(resp.json())
                    except MALFORMED as exc:
                        raise TransientFetchError(
                            f"{url} returned {status} with a body that is not JSON or of the wrong shape: {exc!r}"
                        ) from exc
                if status != 429 and status < 500:
                    raise TransientFetchError(f"{url} returned {status}")
                last_error = TransientFetchError(f"{url} returned {status}")
                if status == 429:
                    delay = self._retry_after(resp, delay)
            if attempt < self.max_retries:
                time.sleep(delay)
        raise TransientFetchError(f"GET {url} failed after {self.max_retries + 1} attempts: {last_error}")

    def _retry_after(self, resp, default: float) -> float:
        """The wait a 429 asks for in ``Retry-After`` seconds, capped at the
        request timeout; ``default`` when the header gives no whole number."""
        try:
            seconds = int(resp.headers.get("Retry-After", ""))
        except ValueError:
            return default
        return min(max(seconds, 0), self.timeout)

    def fetch_last_video(self, channel_id: str) -> VideoRecord:
        return self._get(
            f"/channels/{channel_id}/last-video",
            errors={404: ChannelNotFoundError(channel_id), 204: ChannelStalledError(channel_id)},
            decode=partial(decode_record, VideoRecord),
        )

    def fetch_video(self, video_id: str) -> VideoRecord:
        return self._get(
            f"/videos/{video_id}",
            errors={404: VideoNotFoundError(video_id)},
            decode=partial(decode_record, VideoRecord),
        )

    def fetch_watch_next(self, video_id: str, k: int) -> list[str]:
        if k < 1:
            raise ValueError("k must be at least 1")
        ids = self._get(
            f"/videos/{video_id}/watch-next",
            params={"k": k},
            errors={404: VideoNotFoundError(video_id)},
            decode=lambda body: _strings(body["video_ids"]),
        )
        seen: set[str] = set()
        out = []
        for vid in ids:
            if vid != video_id and vid not in seen:
                out.append(vid)
                seen.add(vid)
        return out[:k]

    def fetch_comments(self, video_id: str, n: int) -> list[Comment]:
        if n < 1:
            raise ValueError("n must be at least 1")
        comments = self._get(
            f"/videos/{video_id}/comments",
            params={"n": n},
            errors={404: VideoNotFoundError(video_id), 403: CommentsDisabledError(video_id)},
            decode=lambda body: (
                None if body.get("disabled") else [decode_record(Comment, c) for c in body["comments"]]
            ),
        )
        if comments is None:
            raise CommentsDisabledError(video_id)
        return comments[:n]


def _strings(values) -> list[str]:
    """``values`` if it is a list of strings; TypeError otherwise."""
    if type(values) is not list or not all(type(v) is str for v in values):
        raise TypeError(f"expected a list of strings, got {values!r:.80}")
    return values

