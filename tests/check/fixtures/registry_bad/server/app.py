"""Bad fixture app: a JSON response path that does not stamp the API version."""


class Server:
    def _send_json(self, status, payload):
        # REG003: response path without the X-Repro-Api-Version header
        return status, payload
