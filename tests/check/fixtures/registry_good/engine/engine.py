"""Good fixture engine: terminal publishes confined to _finalize."""


class Engine:
    def __init__(self, events):
        self.events = events

    def submit(self, job_id):
        self.events.publish(job_id, "queued", {})

    def _finalize(self, job_id):
        self.events.publish(job_id, "done", {"result": None})
