"""Good fixture protocol module: the envelope carries the API version."""

API_VERSION = "1"


class Response:
    def __init__(self, ok):
        self.ok = ok

    def to_dict(self):
        return {"ok": self.ok, "api_version": API_VERSION}
