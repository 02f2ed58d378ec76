"""The live adapter is best-effort glue; these tests run it against a local
HTTP stub to pin down URL shapes, error typing and retry behavior."""

import datetime as dt
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from recaudit.cli import main
from recaudit.corpus import ATTRIBUTE_NAMES, Comment, DailySnapshot, VideoRecord, read_jsonl
from recaudit.crawler import daily_harvest
from recaudit.errors import (
    ChannelNotFoundError,
    CommentsDisabledError,
    ConfigError,
    TransientFetchError,
    VideoNotFoundError,
)
from recaudit.live import API_KEY_ENV, BASE_URL_ENV, LiveAdapter

from conftest import edge_objects

VIDEO_DOC = {
    "video_id": "v1",
    "channel_id": "c1",
    "title": "A Title",
    "description": "desc",
    "tags": ["x"],
    "transcript": None,
    "view_count": 10,
    "comments": [{"text": "hello", "attribute_scores": None}],
}


class _Handler(BaseHTTPRequestHandler):
    flaky_hits = 0
    burst_hits = 0
    revoked_paths: frozenset = frozenset()  # a test lists paths that answer 401

    def log_message(self, *args):
        pass

    def _send(self, code, doc=None, body=None, headers=()):
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        if doc is not None:
            self.wfile.write(json.dumps(doc).encode())
        if body is not None:
            self.wfile.write(body)

    def do_GET(self):
        url = urlparse(self.path)
        query = parse_qs(url.query)
        if url.path in _Handler.revoked_paths:
            self._send(401)
        elif url.path in ("/channels/c1/last-video", "/channels/good/last-video"):
            self._send(200, VIDEO_DOC)
        elif url.path == "/channels/limited/last-video":
            self._send(429, headers=[("Retry-After", "0")])
        elif url.path == "/channels/patient/last-video":
            self._send(429, headers=[("Retry-After", "3600")])
        elif url.path == "/channels/superscript/last-video":
            # The server writes byte 0xB2; the client decodes it as latin-1 '²'.
            self._send(429, headers=[("Retry-After", "\u00b2")])
        elif url.path == "/channels/revoked/last-video":
            self._send(401)
        elif url.path == "/channels/garbled/last-video":
            self._send(200, body=b"<html>busy</html>")
        elif url.path == "/channels/odd/last-video":
            self._send(200, {"title": "x"})
        elif url.path == "/channels/unlisted/last-video":
            self._send(200, {**VIDEO_DOC, "video_id": "nolist"})
        elif url.path == "/videos/nolist/watch-next":
            self._send(200, {"ids": ["v2"]})
        elif url.path == "/videos/numbered/watch-next":
            self._send(200, {"video_ids": [2, 3]})
        elif url.path == "/videos/odd/comments":
            self._send(200, {"comments": "none"})
        elif url.path == "/videos/listed/comments":
            self._send(200, [{"text": "a"}])
        elif url.path == "/channels/burst/last-video":
            _Handler.burst_hits += 1
            if _Handler.burst_hits == 1:
                self._send(429, headers=[("Retry-After", "0")])
            else:
                self._send(200, VIDEO_DOC)
        elif url.path == "/videos/locked":
            self._send(401)
        elif url.path == "/videos/teapot":
            self._send(418)
        elif url.path == "/channels/missing/last-video":
            self._send(404)
        elif url.path == "/videos/v1":
            self._send(200, VIDEO_DOC)
        elif url.path == "/videos/ghost":
            self._send(404)
        elif url.path == "/videos/v1/watch-next":
            k = int(query["k"][0])
            self._send(200, {"video_ids": ["v2", "v3", "v1", "v2", "v4"][: k + 2]})
        elif url.path == "/videos/v1/comments":
            self._send(200, {"comments": [{"text": "a"}, {"text": "b"}], "disabled": False})
        elif url.path == "/videos/quiet/comments":
            self._send(403)
        elif url.path == "/flaky":
            _Handler.flaky_hits += 1
            self._send(503)
        else:
            self._send(404)


@pytest.fixture(scope="module")
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


@pytest.fixture
def adapter(stub_server):
    return LiveAdapter(base_url=stub_server, timeout=5.0, max_retries=1, backoff=0.01)


class TestLiveAdapter:
    def test_fetch_last_video(self, adapter):
        video = adapter.fetch_last_video("c1")
        assert video.video_id == "v1"
        assert video.comments[0] == Comment(text="hello")

    def test_channel_not_found(self, adapter):
        with pytest.raises(ChannelNotFoundError):
            adapter.fetch_last_video("missing")

    def test_fetch_video_and_not_found(self, adapter):
        assert adapter.fetch_video("v1").channel_id == "c1"
        with pytest.raises(VideoNotFoundError):
            adapter.fetch_video("ghost")

    def test_watch_next_dedupes_and_caps(self, adapter):
        # Stub returns v2, v3, v1 (self), v2 (dup), v4 for k=3.
        assert adapter.fetch_watch_next("v1", 3) == ["v2", "v3", "v4"]

    def test_comments_and_disabled(self, adapter):
        assert [c.text for c in adapter.fetch_comments("v1", 5)] == ["a", "b"]
        with pytest.raises(CommentsDisabledError):
            adapter.fetch_comments("quiet", 5)

    def test_server_errors_retry_then_raise_typed(self, adapter):
        _Handler.flaky_hits = 0
        with pytest.raises(TransientFetchError):
            adapter._get("/flaky")
        assert _Handler.flaky_hits == 2  # initial try plus one retry

    def test_rate_limit_is_retried_after_retry_after(self, adapter, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        _Handler.burst_hits = 0
        assert adapter.fetch_last_video("burst").video_id == "v1"
        assert _Handler.burst_hits == 2
        assert sleeps == [0]  # Retry-After, not the adapter's 0.01 s backoff

    def test_long_retry_after_is_capped_at_the_timeout(self, adapter, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with pytest.raises(TransientFetchError, match="429"):
            adapter.fetch_last_video("patient")
        assert sleeps == [adapter.timeout]

    def test_unparseable_retry_after_falls_back_to_backoff(self, adapter, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with pytest.raises(TransientFetchError, match="429"):
            adapter.fetch_last_video("superscript")
        assert sleeps == [adapter.backoff]

    def test_persistent_rate_limit_and_garbled_body_are_transient(self, adapter):
        with pytest.raises(TransientFetchError, match="429"):
            adapter.fetch_last_video("limited")
        with pytest.raises(TransientFetchError, match="/channels/garbled/last-video returned 200"):
            adapter.fetch_last_video("garbled")

    def test_unauthorized_names_the_api_key(self, adapter):
        with pytest.raises(ConfigError, match=API_KEY_ENV):
            adapter.fetch_video("locked")

    def test_other_status_is_transient_with_url_and_status(self, adapter):
        with pytest.raises(TransientFetchError, match="/videos/teapot returned 418"):
            adapter.fetch_video("teapot")

    def test_harvest_skips_failing_channels_and_keeps_the_good_one(self, adapter):
        result = daily_harvest(adapter, ["limited", "garbled", "good"], dt.date(2019, 5, 1), k=3)
        assert [(e.source_video_id, e.recommended_video_id) for e in edge_objects(result.snapshot.edges)] == [
            ("v1", "v2"),
            ("v1", "v3"),
            ("v1", "v4"),
        ]
        assert [channel for channel, _ in result.failures] == ["limited", "garbled"]
        assert all(reason.startswith("TransientFetchError") for _, reason in result.failures)

    def test_body_of_the_wrong_shape_is_transient_naming_the_url(self, adapter):
        with pytest.raises(TransientFetchError, match="/channels/odd/last-video returned 200"):
            adapter.fetch_last_video("odd")
        with pytest.raises(TransientFetchError, match="/videos/nolist/watch-next .*wrong shape"):
            adapter.fetch_watch_next("nolist", 3)
        with pytest.raises(TransientFetchError, match="/videos/numbered/watch-next"):
            adapter.fetch_watch_next("numbered", 3)
        for video_id in ("odd", "listed"):
            with pytest.raises(TransientFetchError, match=f"/videos/{video_id}/comments"):
                adapter.fetch_comments(video_id, 5)

    def test_harvest_skips_bodies_of_the_wrong_shape_and_keeps_the_good_one(self, adapter):
        result = daily_harvest(adapter, ["odd", "good"], dt.date(2019, 5, 1), k=3)
        assert [e.recommended_video_id for e in edge_objects(result.snapshot.edges)] == ["v2", "v3", "v4"]
        assert [channel for channel, _ in result.failures] == ["odd"]
        assert result.failures[0][1].startswith("TransientFetchError")
        result = daily_harvest(adapter, ["unlisted", "good"], dt.date(2019, 5, 1), k=3)
        assert len(result.snapshot.edges) == 3
        assert [channel for channel, _ in result.failures] == ["unlisted"]

    def test_unauthorized_aborts_the_harvest(self, adapter):
        with pytest.raises(ConfigError, match=API_KEY_ENV):
            daily_harvest(adapter, ["good", "revoked"], dt.date(2019, 5, 1), k=3)

    def test_unauthorized_harvest_exits_1_and_writes_no_snapshot(
        self, stub_server, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("RECAUDIT_SOURCE", "live")
        monkeypatch.setenv(BASE_URL_ENV, stub_server)
        (tmp_path / "seeds.txt").write_text("good\nrevoked\n")
        assert main(["harvest", "--date", "2019-05-01", "--out", str(tmp_path)]) == 1
        assert API_KEY_ENV in capsys.readouterr().err
        assert not (tmp_path / "snapshots").exists()

    def test_unauthorized_video_fetch_writes_nothing_and_the_rerun_succeeds(
        self, stub_server, tmp_path, monkeypatch, capsys
    ):
        # good's v1 recommends v2, whose fetch answers 401 after the
        # channel phase has already succeeded.
        monkeypatch.setenv("RECAUDIT_SOURCE", "live")
        monkeypatch.setenv(BASE_URL_ENV, stub_server)
        (tmp_path / "seeds.txt").write_text("good\n")
        argv = ["harvest", "--date", "2019-05-01", "--out", str(tmp_path)]
        with monkeypatch.context() as revoked:
            revoked.setattr(_Handler, "revoked_paths", frozenset({"/videos/v2"}))
            assert main(argv) == 1
        assert API_KEY_ENV in capsys.readouterr().err
        assert not (tmp_path / "snapshots").exists()
        assert not (tmp_path / "videos").exists()
        assert not (tmp_path / "manifests" / "harvest-2019-05-01.json").exists()
        assert main(argv) == 0
        assert (tmp_path / "snapshots" / "2019-05-01.jsonl").exists()
        assert (tmp_path / "videos" / "2019-05-01.jsonl").exists()

    def test_live_harvest_writes_the_snapshot_and_scored_videos(
        self, stub_server, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setenv("RECAUDIT_SOURCE", "live")
        monkeypatch.setenv(BASE_URL_ENV, stub_server)
        (tmp_path / "seeds.txt").write_text("good\n")
        assert main(["harvest", "--date", "2019-05-01", "--out", str(tmp_path)]) == 0
        (snapshot,) = read_jsonl(tmp_path / "snapshots" / "2019-05-01.jsonl", DailySnapshot)
        assert [(e.source_video_id, e.recommended_video_id, e.rank) for e in edge_objects(snapshot.edges)] == [
            ("v1", "v2", 1),
            ("v1", "v3", 2),
            ("v1", "v4", 3),
        ]
        # v1 is fetched with its comment, which the bundled lexicon scores;
        # v2 to v4 answer 404 and are skipped with a warning.
        (video,) = read_jsonl(tmp_path / "videos" / "2019-05-01.jsonl", VideoRecord)
        assert video.video_id == "v1"
        (comment,) = video.comments
        assert comment.text == "hello"
        assert len(comment.attribute_scores) == len(ATTRIBUTE_NAMES) == 7
        assert all(0.0 <= s <= 1.0 for s in comment.attribute_scores)
        skipped = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert [m.split(":")[0] for m in skipped] == [f"could not fetch video {v}" for v in ("v2", "v3", "v4")]

    def test_unreachable_host_is_transient(self):
        dead = LiveAdapter(base_url="http://127.0.0.1:9", timeout=0.2, max_retries=0)
        with pytest.raises(TransientFetchError):
            dead.fetch_video("v1")

    def test_from_env_requires_base_url(self, monkeypatch):
        monkeypatch.delenv(BASE_URL_ENV, raising=False)
        with pytest.raises(ConfigError):
            LiveAdapter.from_env()
        monkeypatch.setenv(BASE_URL_ENV, "http://example.invalid")
        assert LiveAdapter.from_env().base_url == "http://example.invalid"
