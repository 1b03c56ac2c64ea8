"""Good fixture app: every response path stamps the API version."""

API_VERSION = "1"


class Server:
    def _send_json(self, status, payload):
        headers = {"X-Repro-Api-Version": API_VERSION}
        return status, headers, payload
