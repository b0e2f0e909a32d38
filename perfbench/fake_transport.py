"""In-process stand-in for an OpenAI-style chat-completions endpoint.

``HttpChatBackend`` calls its transport as ``transport(url, headers,
payload)`` and expects ``(status, body)``. This one sleeps a fixed latency
per model, then answers from the manifest's ground truth, except for the
seeded wrong answers, one-shot 503s and permanent 400s of the plan. Every
200 body is well formed, so a stricter reply parser in the program does not
change which trials fail. Each call is logged with its model, start and end
time and status for the benchmark's checks.
"""
from __future__ import annotations

import time

DUMMY_CREDENTIAL = "perfbench-dummy-key"


def wrong_answer(answer_format: str, truth: str) -> str:
    """A wrong answer for the synthetic manifest's two answer formats."""
    if answer_format == "mc_letter":
        return "ABCD"[("ABCD".index(truth.upper()) + 1) % 4]
    return str(int(truth) + 1)


class FakeChatTransport:
    def __init__(self, plan):
        self.plan = plan
        self.calls: list[tuple[str, float, float, int]] = []
        self._served_503: set[tuple[str, str]] = set()

    def __call__(self, url: str, headers: dict, payload: dict) -> tuple[int, dict]:
        start = time.monotonic()
        model = payload["model"]
        time.sleep(self.plan.latency_s[model])
        status, body = self._respond(model, payload["messages"][0]["content"], headers)
        self.calls.append((model, start, time.monotonic(), status))
        return status, body

    def _respond(self, model: str, prompt: str, headers: dict) -> tuple[int, dict]:
        key = (model, prompt)
        if headers.get("Authorization") != f"Bearer {DUMMY_CREDENTIAL}":
            return 401, {"error": {"message": "missing or wrong credential"}}
        if key in self.plan.fail_400:
            return 400, {"error": {"message": "injected bad request"}}
        if key in self.plan.fail_503 and key not in self._served_503:
            self._served_503.add(key)
            return 503, {"error": {"message": "injected overload"}}
        answer_format, truth = self.plan.answers[prompt]
        answer = wrong_answer(answer_format, truth) if key in self.plan.wrong else truth
        text = f"The answer is {answer}."
        prompt_tokens = len(prompt.split())
        completion_tokens = len(text.split())
        return 200, {
            "id": f"chatcmpl-{len(self.calls)}",
            "object": "chat.completion",
            "model": model,
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": text},
                    "finish_reason": "stop",
                }
            ],
            "usage": {
                "prompt_tokens": prompt_tokens,
                "completion_tokens": completion_tokens,
                "total_tokens": prompt_tokens + completion_tokens,
            },
        }
