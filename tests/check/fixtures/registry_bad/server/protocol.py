"""Bad fixture protocol module: the envelope lacks the API version."""

API_VERSION = "1"


class Response:
    def __init__(self, ok):
        self.ok = ok

    def to_dict(self):
        # REG003: no api_version field in the envelope
        return {"ok": self.ok}
