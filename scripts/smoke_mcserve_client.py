"""Scripted mcserve client for scripts/smoke_mcserve.sh (stdlib only).

Phase 1 mirrors a gold-labeled mcdebug run over HTTP — same tables,
blocker rule, seed, and join options — asserting every status code and
response shape along the way, and writes the canonical report for the
byte-compare against the CLI's.

Phase 2 is the graceful-drain check: it starts a 15x-scale join, reads
the live progress surface while the join is in flight (a JSON snapshot
and one SSE `event: progress` frame, then disconnects mid-stream to
prove teardown leaves the join running), sends the server SIGTERM,
asserts the drain-time flight-record auto-dump carries the join as an
in-flight request event (preserving a copy as flight_drain.json before
the close dump overwrites it), and asserts the join still answers 200
before the process exits.
"""

import csv
import json
import os
import shutil
import signal
import sys
import threading
import time
import urllib.error
import urllib.request

BASE, TMP, SRV_PID, REPORT_OUT = (
    sys.argv[1],
    sys.argv[2],
    int(sys.argv[3]),
    sys.argv[4],
)


def req(method, path, body=None, ctype="application/json"):
    r = urllib.request.Request(BASE + path, data=body, method=method)
    if body is not None:
        r.add_header("Content-Type", ctype)
    try:
        with urllib.request.urlopen(r, timeout=120) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as e:
        return e.code, e.read()


def expect(method, path, want, body=None, ctype="application/json"):
    code, data = req(method, path, body, ctype)
    if code != want:
        sys.exit(f"{method} {path}: status {code}, want {want}: {data[:300]}")
    return data


def upload(su, side, path, name):
    with open(path, "rb") as f:
        expect("PUT", f"{su}/tables/{side}?name={name}", 200, f.read(), "text/csv")


def run_session(prefix, create_body, drive):
    data = expect("POST", "/v1/sessions", 201, create_body.encode())
    sid = json.loads(data)["id"]
    su = f"/v1/sessions/{sid}"
    upload(su, "a", f"{prefix}/F-Z-A.csv", "F-Z-A")
    upload(su, "b", f"{prefix}/F-Z-B.csv", "F-Z-B")
    expect("POST", f"{su}/blocker", 200, b'{"drops":["name_jac_word<0.4"]}')
    return sid, su, drive(su)


def load_gold(path):
    gold = set()
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if row and row[0] != "a_row":
                gold.add((int(row[0]), int(row[1])))
    return gold


# ---- phase 1: deterministic session, report byte-compared to the CLI ----

gold = load_gold(f"{TMP}/F-Z-gold.csv")

# Out-of-order operations answer 4xx, never 5xx.
expect("GET", "/v1/sessions/zzz", 404)
probe = json.loads(expect("POST", "/v1/sessions", 201, b"{}"))["id"]
expect("POST", f"/v1/sessions/{probe}/join", 409)
expect("POST", f"/v1/sessions/{probe}/next", 409)
expect("GET", f"/v1/sessions/{probe}/progress", 409)  # no join yet
expect("DELETE", f"/v1/sessions/{probe}", 204)


def drive_gold(su):
    j = json.loads(expect("POST", f"{su}/join", 200))
    if j["e_size"] <= 0 or j["configs"] <= 0:
        sys.exit(f"join shape: {j}")
    # The progress surface outlives the join: a snapshot on a finished
    # join answers 200 with the terminal counters.
    snap = json.loads(expect("GET", f"{su}/progress", 200))
    if snap["joining"] or not snap["join"]["done"]:
        sys.exit(f"finished-join progress shape: {snap}")
    if snap["join"]["probes_done"] <= 0:
        sys.exit(f"finished-join progress counted no probes: {snap}")
    for _ in range(200):
        n = json.loads(expect("POST", f"{su}/next", 200))
        if n["done"]:
            break
        labels = [((p["a"], p["b"]) in gold) for p in n["pairs"]]
        body = json.dumps({"labels": labels}).encode()
        json.loads(expect("POST", f"{su}/labels", 200, body))
    fin = json.loads(expect("POST", f"{su}/finish", 200))
    if fin["iterations"] <= 0:
        sys.exit(f"finish shape: {fin}")
    return expect("GET", f"{su}/report", 200)


sid, su, report = run_session(
    TMP,
    '{"seed":1,"k":200,"n":10,"workers":1}',
    drive_gold,
)
with open(REPORT_OUT, "wb") as f:
    f.write(report)

# A second join on a joined session is refused; the explain route renders.
expect("POST", f"{su}/join", 409)
page = json.loads(expect("GET", f"{su}/candidates?offset=0&limit=5", 200))
if page["total"] <= 0 or len(page["pairs"]) > 5:
    sys.exit(f"candidates shape: {page}")
expect("DELETE", f"{su}", 204)
expect("GET", f"{su}", 404)

# ---- phase 2: SIGTERM with the 15x-scale join in flight ----

result = {}


def check_progress_live(su):
    """Read the progress surface while the 15x-scale join is running.

    First a plain JSON snapshot (joining must be true, the probe plan
    sized), then an SSE stream: read one live `event: progress` frame
    and disconnect mid-stream. The server must tear the stream down on
    client disconnect without disturbing the join — phase 2's drain
    check right after proves the join is still in flight.
    """
    snap = json.loads(expect("GET", f"{su}/progress", 200))
    if not snap["joining"] or snap["join"]["probes_total"] <= 0:
        sys.exit(f"mid-join progress snapshot shape: {snap}")
    r = urllib.request.Request(
        BASE + su + "/progress", headers={"Accept": "text/event-stream"}
    )
    with urllib.request.urlopen(r, timeout=30) as resp:
        ctype = resp.headers.get("Content-Type", "")
        if not ctype.startswith("text/event-stream"):
            sys.exit(f"SSE Content-Type: {ctype!r}")
        event, frame = None, None
        for raw in resp:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                frame = json.loads(line[len("data: "):])
            elif line == "" and event is not None:
                break  # end of first frame; disconnect mid-stream
        if event != "progress" or frame is None:
            sys.exit(f"first SSE frame: event={event!r} data={frame}")
        j = frame["join"]
        if frame["session"] not in su or j["done"] or j["probes_total"] <= 0:
            sys.exit(f"SSE progress frame shape: {frame}")


def check_drain_dump():
    """Assert the SIGTERM auto-dump carries the in-flight join.

    BeginShutdown writes the "drain" dump the moment SIGTERM lands,
    while the 15x-scale join is still running, so its inflight section
    must hold the join's request event. The dump is preserved as
    flight_drain.json because the close-time dump overwrites the file
    on clean exit. If the join outraced our first read (the file already
    says "close"), the completed join event stands in as the evidence.
    """
    path = os.path.join(TMP, "flight.json")
    keep = os.path.join(TMP, "flight_drain.json")
    deadline = time.time() + 15
    while time.time() < deadline:
        try:
            with open(path) as f:
                d = json.load(f)
        except (OSError, ValueError):
            time.sleep(0.05)
            continue
        if d.get("reason") == "drain":
            joins = [e for e in d.get("inflight") or [] if e.get("route") == "join"]
            if not joins:
                sys.exit(f"drain dump lacks the in-flight join: {d.get('inflight')}")
            if not joins[0].get("inflight") or joins[0].get("kind") != "request":
                sys.exit(f"drain dump join event malformed: {joins[0]}")
            shutil.copyfile(path, keep)
            return
        if d.get("reason") == "close" and any(
            e.get("route") == "join" and e.get("kind") == "request"
            for e in d.get("events", [])
        ):
            shutil.copyfile(path, keep)
            return
        time.sleep(0.05)
    sys.exit("no flight-record auto-dump appeared after SIGTERM")


def drive_drain(su):
    def do_join():
        result["code"], _ = req("POST", f"{su}/join")

    t = threading.Thread(target=do_join)
    t.start()
    time.sleep(0.5)  # let the join get going
    check_progress_live(su)
    if not t.is_alive():
        sys.exit("15x join finished before the SSE check; scale the dataset up")
    os.kill(SRV_PID, signal.SIGTERM)
    check_drain_dump()
    t.join(timeout=120)
    if t.is_alive():
        sys.exit("join did not return after SIGTERM: drain hung")
    return result["code"]


_, _, code = run_session(f"{TMP}/big", '{"seed":1,"k":1000,"n":10}', drive_drain)
if code != 200:
    sys.exit(f"in-flight join answered {code} during drain, want 200")
print("smoke client: OK")
