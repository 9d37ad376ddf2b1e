"""The HTTP client the remote backends share: one JSON POST, retried on transient faults.

The only module that imports ``urllib`` or ``http``. The embedding and
generation clients import it when they first send, so a run on the test
backend never loads the network stack.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Callable

# The wait after the first failed try, in seconds; it doubles after each try.
_RETRY_BASE_DELAY = 0.5
# The client statuses retried as 5xx replies are: a timed-out or rate-limited request.
_RETRIED_STATUSES = (408, 429)


class _Redirects(urllib.request.HTTPRedirectHandler):
    """Follow 307/308 replies to a POST with the same body, and pass the
    bearer token on only when the scheme and host[:port] stay the same.

    The token is an unredirected header, which urllib never copies to a
    redirect's request, so this handler is the one place that passes it on.
    """

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        if code in (307, 308) and req.get_method() == "POST":
            new = urllib.request.Request(
                newurl,
                data=req.data,
                headers=req.headers,
                origin_req_host=req.origin_req_host,
                unverifiable=True,
                method="POST",
            )
        else:
            new = super().redirect_request(req, fp, code, msg, headers, newurl)
        token = req.unredirected_hdrs.get("Authorization")
        same_origin = urllib.parse.urlsplit(newurl)[:2] == urllib.parse.urlsplit(req.full_url)[:2]
        if new is not None and token and same_origin:
            new.add_unredirected_header("Authorization", token)
        return new


_OPENER = urllib.request.build_opener(_Redirects)


def post_with_retries(
    service: str,
    url: str,
    payload: dict,
    error: Callable[..., Exception],
    *,
    api_key_env: str,
    timeout: float,
    attempts: int,
) -> object:
    """POST payload as JSON and return the decoded JSON body of the first 200 reply.

    A bearer token is sent when the api_key_env variable is set. Connection errors,
    5xx replies and the _RETRIED_STATUSES are retried up to attempts tries in all,
    waiting _RETRY_BASE_DELAY seconds and doubling the wait after each try; any other
    status fails at once, and so does a 200 reply whose body is not JSON.
    Failures raise error(message, status=...). Retry warnings are logged
    under chunkbench.<service>, the module of the client that sent them.
    """
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    api_key = os.environ.get(api_key_env)
    if api_key:
        request.add_unredirected_header("Authorization", f"Bearer {api_key}")
    delay = _RETRY_BASE_DELAY
    last_status: int | None = None
    last_error = "connection failed"
    for attempt in range(attempts):
        try:
            # By keyword: a positional argument of .open() reads as a file mode.
            with _OPENER.open(fullurl=request, timeout=timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
            exc.close()
        except (OSError, http.client.HTTPException) as exc:
            status, last_error = None, str(exc)
        if status == 200:
            try:
                return json.loads(body)
            except ValueError as exc:
                raise error(f"{service} backend returned invalid JSON: {exc}") from exc
        last_status = status
        if status is not None:
            last_error = f"status {status}"
            if status < 500 and status not in _RETRIED_STATUSES:
                # Other client errors will not heal on retry.
                raise error(
                    f"{service} backend rejected the request ({last_error})", status=status
                )
        if attempt < attempts - 1:
            logging.getLogger(f"chunkbench.{service}").warning(
                "%s request failed (%s), retrying in %.2fs", service, last_error, delay
            )
            time.sleep(delay)
            delay *= 2.0
    raise error(
        f"{service} backend failed after {attempts} attempts ({last_error})", status=last_status
    )
