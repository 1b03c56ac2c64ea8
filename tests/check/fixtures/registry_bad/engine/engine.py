"""Bad fixture engine: a terminal publish outside _finalize."""


class Engine:
    def __init__(self, events):
        self.events = events

    def submit(self, job_id):
        # REG004: terminal event published outside _finalize
        self.events.publish(job_id, "done", {"result": None})

    def _finalize(self, job_id):
        self.events.publish(job_id, "failed", {"error": "boom"})
